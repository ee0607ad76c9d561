"""Order statistics: medians, percentiles, nonparametric CIs.

The median CI uses the classic binomial argument: if X(1) <= ... <= X(n)
are the order statistics, then P(X(l) <= m <= X(u)) = P(l <= B <= u-1)
where B ~ Binomial(n, 1/2) counts observations below the median.  We
pick the tightest symmetric (l, u) achieving the requested coverage.
No distributional assumptions -- this is what the paper computes
("non-parametric 99% confidence intervals of the median", Sec. V-A).

For samples beyond a few thousand points the exact binomial walk is
replaced by the standard normal approximation of the binomial ranks
(l, u = n/2 -+ z*sqrt(n)/2), which is what makes million-sample CIs
affordable; :func:`median_ci_ranks` exposes the rank computation so
the streaming estimators in :mod:`repro.analysis.streams` can reuse it
without materializing the sample.

``summarize()`` sorts the sample **once** and derives median, p50, p95,
p99, min, max and the CI from the same ordered copy; before this it
re-sorted per statistic (five sorts per call), which dominated
summary cost for large series.  Use :func:`percentiles` for the same
one-sort derivation of an arbitrary percentile list.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, floor, sqrt
from statistics import NormalDist
from typing import Sequence

#: Above this sample size, CI ranks switch from the exact binomial walk
#: to the normal approximation of the binomial.
_EXACT_CI_MAX_N = 2_000


def _percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """q-th percentile of an already-sorted sample (linear interpolation)."""
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100
    low = int(rank)
    frac = rank - low
    if low + 1 < len(ordered):
        return ordered[low] * (1 - frac) + ordered[low + 1] * frac
    return float(ordered[-1])


def _median_sorted(ordered: Sequence[float]) -> float:
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def median(values: Sequence[float]) -> float:
    """Sample median (average of the two middle values for even n)."""
    if not values:
        raise ValueError("median of empty sequence")
    return _median_sorted(sorted(values))


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0..100), linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return _percentile_sorted(sorted(values), q)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> list[float]:
    """Several percentiles from one sort of *values*.

    Equivalent to ``[percentile(values, q) for q in qs]`` but sorts the
    sample once instead of once per requested percentile.
    """
    if not values:
        raise ValueError("percentiles of empty sequence")
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    return [_percentile_sorted(ordered, q) for q in qs]


def _binomial_cdf(k: int, n: int) -> float:
    """P(B <= k) for B ~ Binomial(n, 1/2)."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    total = sum(comb(n, i) for i in range(k + 1))
    return total / 2**n


def median_ci_ranks(n: int, confidence: float = 0.99) -> tuple[int, int]:
    """1-indexed order-statistic ranks (l, u) bracketing the median.

    Exact binomial walk for small n (identical to the historical
    behaviour, ~1.5 ms at n = 2,000); normal approximation of
    Binomial(n, 1/2) for large n, whose ranks the streaming estimators
    also use.  Returns ``(1, n)`` when no interior interval achieves
    the coverage (the conservative choice).
    """
    if n < 1:
        raise ValueError("median_ci_ranks needs n >= 1")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n == 1:
        return 1, 1
    if n <= _EXACT_CI_MAX_N:
        # below[k] = sum of C(n, i) for i < k, exact integers built in
        # one pass with C(n, i + 1) = C(n, i) * (n - i) // (i + 1), so
        # below[k + 1] / 2**n is the very float _binomial_cdf(k, n)
        # returns, without re-summing O(n) big ints per candidate.
        below = [0]
        coefficient = 1
        for i in range(n - 1):
            below.append(below[-1] + coefficient)
            coefficient = coefficient * (n - i) // (i + 1)
        scale = 2**n
        for half_width in range(1, n // 2 + 1):
            lo = n // 2 - half_width + 1
            hi = n - lo + 1
            if lo < 1:
                break
            coverage = below[hi - 1] / scale - below[lo - 1] / scale
            if coverage >= confidence:
                return lo, hi
        return 1, n
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    half = z * sqrt(n) / 2
    lo = max(1, floor(n / 2 - half))
    hi = min(n, ceil(n / 2 + 1 + half))
    return lo, hi


def _median_ci_sorted(
    ordered: Sequence[float], confidence: float
) -> tuple[float, float]:
    lo, hi = median_ci_ranks(len(ordered), confidence)
    return float(ordered[lo - 1]), float(ordered[hi - 1])


def median_ci(values: Sequence[float], confidence: float = 0.99) -> tuple[float, float]:
    """Nonparametric CI for the median from binomial order statistics.

    Returns (low, high) sample values.  For very small samples where no
    interior interval achieves the coverage, the sample range is
    returned (the conservative choice).
    """
    if not values:
        raise ValueError("median_ci of empty sequence")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return _median_ci_sorted(sorted(values), confidence)


@dataclass
class SummaryStats:
    """The numbers the paper's figures report for one series."""

    count: int
    median: float
    p99: float
    mean: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float
    #: 95th percentile (added with the one-sort summary path; older
    #: archived results may carry the 0.0 default).
    p95: float = 0.0

    @property
    def p50(self) -> float:
        """Alias: the median is the 50th percentile."""
        return self.median

    @property
    def ci_tightness(self) -> float:
        """CI width relative to the median (paper: '<1%' for Fig. 8)."""
        if self.median == 0:
            return 0.0
        return (self.ci_high - self.ci_low) / self.median


def summarize(values: Sequence[float], confidence: float = 0.99) -> SummaryStats:
    """Median/p95/p99/mean/CI bundle for a sample, from a single sort."""
    if not values:
        raise ValueError("summarize of empty sequence")
    ordered = sorted(values)
    low, high = _median_ci_sorted(ordered, confidence)
    return SummaryStats(
        count=len(ordered),
        median=_median_sorted(ordered),
        p99=_percentile_sorted(ordered, 99),
        mean=sum(ordered) / len(ordered),
        minimum=float(ordered[0]),
        maximum=float(ordered[-1]),
        ci_low=low,
        ci_high=high,
        confidence=confidence,
        p95=_percentile_sorted(ordered, 95),
    )
