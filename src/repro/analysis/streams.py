"""O(1)-memory streaming statistics for million-invocation runs.

The exact pipeline in :mod:`repro.analysis.stats` keeps every sample in
memory and sorts once per summary -- fine for the paper's figures
(10^3..10^5 points), hopeless for the scale harness where a single run
produces >=10^6 latencies.  This module computes the same summary shape
(:class:`repro.analysis.stats.SummaryStats`) from bounded state:

* :class:`LogHistogram` -- base-2 logarithmic histogram with
  ``2**subbits`` sub-buckets per octave.  Every recorded value lands in
  a bucket whose width is at most ``2**-subbits`` of its magnitude, so
  any quantile read back from the histogram has **relative error
  <= 2**-subbits** (default ``subbits=8``: <= 0.39%).  This bound is
  deterministic -- not probabilistic like a reservoir -- and the
  histogram merges exactly.
* :class:`StreamingSummary` -- glue: the running total, LogHistogram
  and exact min/max, bridged to ``SummaryStats`` (median, p95, p99,
  mean, CI) through the same binomial CI ranks the exact path uses
  (:func:`repro.analysis.stats.median_ci_ranks`).  Every caller in the
  program records integer nanoseconds, so the total is an exact integer
  and the mean ``total / count`` is one correctly rounded division:
  it does not depend on batching, observation order or merge order.
* :class:`KeyedStreamingSummary` -- a keyed map of the above (one
  accumulator per tenant/class).

Memory is O(number of occupied buckets), bounded by
``subbits``-per-octave times the dynamic range of the data and
independent of sample count: nanosecond latencies spanning 1ns..100s
touch at most ~37 octaves, i.e. <10k buckets at the default resolution.
"""

from __future__ import annotations

from math import frexp, inf, ldexp
from typing import Any, Iterable, Optional

import numpy as np

from repro.analysis.stats import SummaryStats, median_ci_ranks


class LogHistogram:
    """Base-2 log histogram: relative quantile error <= 2**-subbits.

    A positive value ``v = m * 2**e`` (``frexp``, ``0.5 <= m < 1``)
    falls in octave ``e - 1`` and sub-bucket ``floor((2m - 1) *
    2**subbits)``; the bucket spans ``[lo, lo * (1 + 2**-subbits))``
    with ``lo = 2**octave * (1 + sub * 2**-subbits)``.  Reads report the
    bucket's lower edge, so a reported quantile ``r`` satisfies
    ``r <= true < r * (1 + 2**-subbits)`` -- the documented relative
    error bound (underestimates only, never overestimates).

    Bulk inserts read the same key from the IEEE-754 bit pattern.  A
    positive normal double is ``(1 + f * 2**-52) * 2**(E - 1023)``, with
    the biased exponent ``E`` in bits 52..62 and the fraction ``f`` in
    bits 0..51; its octave is ``E - 1023`` and its sub-bucket the top
    ``subbits`` bits of ``f``, so the key is ``(bits >> (52 - subbits))
    - (1023 << subbits)``: one shift and one subtraction.  That equals
    the ``frexp`` formula exactly for every positive normal double, from
    ``2**-1022`` to the largest finite one (``2m - 1`` and the scaling
    are exact, so the floor sees the fraction's own bits).  Subnormals
    (``E == 0``) have no implicit leading bit, so ``add_many`` keys them
    with ``frexp`` as ``add`` does.

    Zeros are counted exactly in a dedicated bucket; negative values,
    NaN and infinities are rejected with ``ValueError`` before any count
    moves (the harness records latencies and rates, both finite and
    >= 0).  Occupied buckets are kept as two parallel arrays, keys
    ascending, so bulk inserts, merges and rank reads are a few numpy
    calls and memory follows the occupied buckets, not ``2**subbits``.
    """

    __slots__ = ("subbits", "count", "zero_count", "_scale", "_keys", "_counts")

    def __init__(self, subbits: int = 8) -> None:
        if not 1 <= subbits <= 16:
            raise ValueError(f"subbits must be in [1, 16], got {subbits}")
        self.subbits = subbits
        self._scale = 1 << subbits
        self.count = 0
        self.zero_count = 0
        #: Occupied bucket keys, ascending (key = octave * 2**subbits +
        #: sub), and their occupancies.
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)

    def _key(self, value: float) -> int:
        mantissa, exponent = frexp(value)
        sub = int((2 * mantissa - 1) * self._scale)
        if sub == self._scale:  # guard against float round-up at m -> 1
            sub = self._scale - 1
        return (exponent - 1) * self._scale + sub

    def _edge(self, key: int) -> float:
        octave, sub = divmod(key, self._scale)
        return ldexp(1 + sub / self._scale, octave)

    def add(self, value: float) -> None:
        if not 0 <= value < inf:  # NaN fails both comparisons
            raise ValueError(f"LogHistogram records finite non-negative values, got {value}")
        if value == 0:
            self.count += 1
            self.zero_count += 1
            return
        key = self._key(value)
        self.count += 1
        self._fold(np.array([key], dtype=np.int64), np.ones(1, dtype=np.int64))

    def add_many(self, values) -> None:
        """Bulk insert, vectorized, keyed from the bit pattern (see above)."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size:
            self._insert(arr, arr.min(), arr.max())

    def _insert(self, values: np.ndarray, low: Any, high: Any) -> None:
        """Insert the non-empty *values*, whose least and greatest are
        *low* and *high* (NaN if any value is NaN).

        Keys rise with values, so the batch's key range is the keys of
        its least positive value and of *high*.  The batch is keyed in
        place in a float64 copy of its positive values, viewed as int64.
        """
        if not 0 <= low <= high < inf:  # a negative, an infinity or a NaN
            raise ValueError("LogHistogram records finite non-negative values")
        values = values.ravel()
        positive = values if low > 0 else values[values > 0]
        self.count += int(values.size)
        self.zero_count += int(values.size - positive.size)
        if not positive.size:
            return
        least = self._key(float(low if low > 0 else positive.min()))
        span = self._key(float(high)) - least + 1
        keys = positive.astype(np.float64).view(np.int64)
        keys >>= 52 - self.subbits
        keys -= least + (1023 << self.subbits)  # each key less the least
        if least < -1022 * self._scale:  # exponent bits all zeros: subnormals
            tiny = np.flatnonzero(keys < -1022 * self._scale - least)
            keys[tiny] = [self._key(value) - least for value in positive[tiny].tolist()]
        if span <= keys.size:
            # A dense tally over the sample's own key range is no
            # larger than the sample, and much cheaper than a sort.
            tally = np.bincount(keys, minlength=span)
            occupied = np.flatnonzero(tally)
            self._fold(occupied + least, tally[occupied])
        else:
            occupied, counts = np.unique(keys, return_counts=True)
            self._fold(occupied + least, counts)

    def _fold(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add *counts* to the buckets *keys* (ascending, distinct)."""
        merged = np.concatenate((self._keys, keys))
        order = np.argsort(merged, kind="stable")  # two ascending runs
        merged = merged[order]
        heads = np.flatnonzero(np.concatenate(([True], merged[1:] != merged[:-1])))
        self._keys = merged[heads]
        self._counts = np.add.reduceat(np.concatenate((self._counts, counts))[order], heads)

    def merge(self, other: "LogHistogram") -> None:
        if other.subbits != self.subbits:
            raise ValueError("cannot merge histograms with different subbits")
        self.count += other.count
        self.zero_count += other.zero_count
        if other._keys.size:
            self._fold(other._keys, other._counts)

    def __len__(self) -> int:
        """Occupied buckets -- the memory footprint, not the sample count."""
        return int(self._keys.size) + (1 if self.zero_count else 0)

    def value_at_rank(self, rank: int) -> float:
        """Lower edge of the bucket holding the rank-th smallest sample.

        ``rank`` is 1-indexed (order-statistic convention, matching
        :func:`repro.analysis.stats.median_ci_ranks`).
        """
        return self._values_at_ranks([rank])[0]

    def _values_at_ranks(self, ranks: list) -> list:
        """:meth:`value_at_rank` of each of *ranks*, from one cumulative
        sum of the bucket counts."""
        for rank in ranks:
            if not 1 <= rank <= self.count:
                raise ValueError(f"rank {rank} outside [1, {self.count}]")
        zeros = self.zero_count
        below = np.cumsum(self._counts)
        buckets = below.searchsorted([rank - zeros for rank in ranks]).tolist()
        values = []
        for rank, bucket in zip(ranks, buckets):
            if rank <= zeros:
                values.append(0.0)
            elif bucket == below.size:
                raise AssertionError("bucket counts inconsistent with self.count")
            else:
                values.append(self._edge(int(self._keys[bucket])))
        return values

    def quantile(self, q: float) -> float:
        """q-th quantile (0..1), nearest-rank, within the error bound."""
        return self.value_at_rank(self._rank(q))

    def _rank(self, q: float) -> int:
        """The nearest rank of the q-th quantile (0..1)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("quantile of empty histogram")
        return max(1, min(self.count, round(q * (self.count - 1)) + 1))


class StreamingSummary:
    """Bounded-memory replacement for ``stats.summarize`` at scale.

    Combines the running total, exact min/max, and bounded-error
    quantiles (:class:`LogHistogram`).  ``summarize()`` returns the same
    :class:`~repro.analysis.stats.SummaryStats` shape as the exact path,
    with median/p95/p99/CI read from the histogram: each carries the
    histogram's relative error bound of ``2**-subbits``; count, min and
    max are exact, and so is the mean of integer samples.

    ``total`` is the sum of every observed value.  Integer samples (an
    integer array, or a sequence of Python ints) sum as exact integers,
    so ``summarize().mean`` is ``total / count``, correctly rounded,
    whatever the batching or merge order; float samples sum in floating
    point.
    """

    __slots__ = ("total", "histogram", "minimum", "maximum")

    def __init__(self, subbits: int = 8) -> None:
        self.total = 0
        self.histogram = LogHistogram(subbits)
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    @property
    def count(self) -> int:
        return self.histogram.count

    def observe_many(self, values: Iterable[float]) -> None:
        """Observe a batch, vectorized; integer arrays keep an exact total."""
        arr = np.asarray(values)
        if arr.dtype.kind not in "iu":
            arr = arr.astype(np.float64, copy=False)
        if arr.size == 0:
            return
        low, high = arr.min().item(), arr.max().item()
        self.histogram._insert(arr, low, high)  # first: it rejects NaN, inf and negatives
        if isinstance(high, int) and high * arr.size >= 1 << 63:
            self.total += sum(arr.tolist())  # the int64 sum could wrap
        else:
            self.total += arr.sum().item()
        if self.minimum is None or low < self.minimum:
            self.minimum = float(low)
        if self.maximum is None or high > self.maximum:
            self.maximum = float(high)

    @classmethod
    def merged(cls, parts: Iterable["StreamingSummary"]) -> "StreamingSummary":
        """Fold accumulators into a fresh summary.

        Histogram counts, min/max, sample counts and integer totals fold
        exactly, so any order or grouping of *parts* gives the same
        summary.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("merged() needs at least one summary")
        out = cls(parts[0].histogram.subbits)
        for part in parts:
            out.merge(part)
        return out

    def merge(self, other: "StreamingSummary") -> None:
        """Exact fold of another accumulator into this one."""
        self.total += other.total
        self.histogram.merge(other.histogram)
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum

    def summarize(self, confidence: float = 0.99) -> SummaryStats:
        n = self.count
        if n == 0:
            raise ValueError("summarize of empty stream")
        hist = self.histogram
        lo, hi = median_ci_ranks(n, confidence)
        median, p95, p99, ci_low, ci_high = hist._values_at_ranks(
            [hist._rank(0.5), hist._rank(0.95), hist._rank(0.99), lo, hi]
        )
        return SummaryStats(
            count=n,
            median=median,
            p99=p99,
            mean=self.total / n,
            minimum=float(self.minimum),
            maximum=float(self.maximum),
            ci_low=ci_low,
            ci_high=ci_high,
            confidence=confidence,
            p95=p95,
        )


class KeyedStreamingSummary:
    """A map of :class:`StreamingSummary` accumulators, one per key.

    The multi-tenant scale engine records every tenant's sojourns into
    its own accumulator, reads each tenant's summary and total from its
    part, and merges the parts into its all-tenant summary
    (:meth:`StreamingSummary.merged`).
    """

    __slots__ = ("subbits", "parts")

    def __init__(self, subbits: int = 8) -> None:
        self.subbits = subbits
        #: key -> accumulator; insertion order is first-observation
        #: order, but nothing below depends on it (``keys()`` sorts).
        self.parts: dict[Any, StreamingSummary] = {}

    def keys(self) -> list:
        """All keys observed so far, sorted for deterministic iteration."""
        return sorted(self.parts)

    def part(self, key: Any) -> StreamingSummary:
        """The accumulator for *key*, created empty on first use."""
        summary = self.parts.get(key)
        if summary is None:
            summary = self.parts[key] = StreamingSummary(self.subbits)
        return summary

    def observe_many(self, key: Any, values: Iterable[float]) -> None:
        self.part(key).observe_many(values)

    def buckets(self) -> int:
        """Total occupied histogram buckets across keys (memory gauge)."""
        return sum(len(summary.histogram) for summary in self.parts.values())

    def summarize(self, key: Any, confidence: float = 0.99) -> SummaryStats:
        summary = self.parts.get(key)
        if summary is None:
            raise KeyError(f"no samples recorded under key {key!r}")
        return summary.summarize(confidence)
