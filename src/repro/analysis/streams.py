"""O(1)-memory streaming statistics for million-invocation runs.

The exact pipeline in :mod:`repro.analysis.stats` keeps every sample in
memory and sorts once per summary -- fine for the paper's figures
(10^3..10^5 points), hopeless for the scale harness where a single run
produces >=10^6 latencies.  This module computes the same summary shape
(:class:`repro.analysis.stats.SummaryStats`) from bounded state:

* :class:`Welford` -- numerically stable running mean/variance
  (Welford's online algorithm), with Chan's parallel-merge formulas so
  per-shard accumulators combine exactly.
* :class:`P2Quantile` -- the classic Jain & Chlamtac P-squared
  single-quantile estimator: five markers, piecewise-parabolic
  adjustment, O(1) state.  Kept for spot estimates of one quantile;
  it is *approximate with no hard error bound*, so the summary path
  below does not rely on it.
* :class:`LogHistogram` -- base-2 logarithmic histogram with
  ``2**subbits`` sub-buckets per octave.  Every recorded value lands in
  a bucket whose width is at most ``2**-subbits`` of its magnitude, so
  any quantile read back from the histogram has **relative error
  <= 2**-subbits** (default ``subbits=8``: <= 0.39%).  This bound is
  deterministic -- not probabilistic like a reservoir -- and the
  histogram merges exactly across shards.
* :class:`StreamingSummary` -- glue: Welford + LogHistogram + exact
  min/max, bridged to ``SummaryStats`` (median, p95, p99, mean, CI)
  through the same binomial CI ranks the exact path uses
  (:func:`repro.analysis.stats.median_ci_ranks`).
* :class:`KeyedStreamingSummary` -- a keyed map of the above (one
  accumulator per tenant/class), with the same exact keyed merge
  across shards: keys union, per-key accumulators fold with the exact
  histogram/min/max paths, so any grouping of shards produces the same
  per-key histograms whatever order keys first appeared in.

Memory is O(number of occupied buckets), bounded by
``subbits``-per-octave times the dynamic range of the data and
independent of sample count: nanosecond latencies spanning 1ns..100s
touch at most ~37 octaves, i.e. <10k buckets at the default resolution.
"""

from __future__ import annotations

from math import frexp, inf, ldexp, sqrt
from typing import Any, Iterable, Optional

import numpy as np

from repro.analysis.stats import SummaryStats, median_ci_ranks


class Welford:
    """Running count/mean/variance (Welford online, Chan merge)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def add_batch(self, count: int, mean: float, m2: float) -> None:
        """Fold pre-aggregated moments in (Chan et al. pairwise update)."""
        if count <= 0:
            return
        total = self.count + count
        delta = mean - self.mean
        self.mean += delta * count / total
        self._m2 += m2 + delta * delta * self.count * count / total
        self.count = total

    def merge(self, other: "Welford") -> None:
        self.add_batch(other.count, other.mean, other._m2)

    @property
    def variance(self) -> float:
        """Population variance (0.0 until two samples arrive)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def sample_variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return sqrt(self.variance)


class P2Quantile:
    """Jain & Chlamtac's P-squared estimator for a single quantile.

    Five markers track (min, q/2, q, (1+q)/2, max); marker heights move
    by piecewise-parabolic interpolation as observations arrive.  Exact
    while fewer than five samples have been seen.  Accuracy is good in
    practice but carries no worst-case bound -- use
    :class:`LogHistogram` when a guaranteed bound matters.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float) -> None:
        if not 0 < q < 1:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._increments = [0.0, q / 2, q, (1 + q) / 2, 1.0]

    def add(self, value: float) -> None:
        heights = self._heights
        if len(heights) < 5:
            heights.append(value)
            heights.sort()
            return
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        positions = self._positions
        for i in range(cell + 1, 5):
            positions[i] += 1
        desired = self._desired
        for i in range(5):
            desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired ranks.
        for i in (1, 2, 3):
            gap = desired[i] - positions[i]
            if (gap >= 1 and positions[i + 1] - positions[i] > 1) or (
                gap <= -1 and positions[i - 1] - positions[i] < -1
            ):
                step = 1 if gap >= 1 else -1
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step * (h[i + step] - h[i]) / (n[i + step] - n[i])

    @property
    def value(self) -> float:
        """Current estimate of the tracked quantile."""
        heights = self._heights
        if not heights:
            raise ValueError("P2Quantile.value before any sample")
        if len(heights) < 5:
            # Exact small-sample path: nearest-rank on the sorted buffer.
            rank = max(0, min(len(heights) - 1, round(self.q * (len(heights) - 1))))
            return heights[rank]
        return self._heights[2]


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
        if arr.size == 0:
            return
        positive, zeros = arr, 0
        smallest = arr.min()  # NaN if any value is NaN
        if not smallest > 0:  # a zero, a negative or a NaN
            if not smallest >= 0:
                raise ValueError("LogHistogram records finite non-negative values")
            positive = arr[arr > 0]
            zeros = arr.size - positive.size
        if positive.size:
            keys = positive.view(np.int64) >> (52 - self.subbits)
            keys -= 1023 << self.subbits
            low, high = int(keys.min()), int(keys.max())
            if high >= 1024 * self._scale:  # exponent bits all ones
                raise ValueError("LogHistogram records finite non-negative values")
            if low < -1022 * self._scale:  # exponent bits all zeros
                tiny = np.flatnonzero(keys < -1022 * self._scale)
                keys[tiny] = [self._key(value) for value in positive[tiny].tolist()]
                low = int(keys.min())
        self.count += int(arr.size)
        self.zero_count += zeros
        if not positive.size:
            return
        span = high - low + 1
        if span <= keys.size:
            # A dense tally over the sample's own key range is no
            # larger than the sample, and much cheaper than a sort.
            tally = np.bincount(keys - low, minlength=span)
            occupied = np.flatnonzero(tally)
            self._fold(occupied + low, tally[occupied])
        else:
            self._fold(*np.unique(keys, return_counts=True))

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
        if not 1 <= rank <= self.count:
            raise ValueError(f"rank {rank} outside [1, {self.count}]")
        if rank <= self.zero_count:
            return 0.0
        below = np.cumsum(self._counts)
        bucket = int(np.searchsorted(below, rank - self.zero_count))
        if bucket == below.size:
            raise AssertionError("bucket counts inconsistent with self.count")
        return self._edge(int(self._keys[bucket]))

    def quantile(self, q: float) -> float:
        """q-th quantile (0..1), nearest-rank, within the error bound."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("quantile of empty histogram")
        rank = max(1, min(self.count, round(q * (self.count - 1)) + 1))
        return self.value_at_rank(rank)


class StreamingSummary:
    """Bounded-memory replacement for ``stats.summarize`` at scale.

    Combines exact moments (:class:`Welford`), exact min/max, and
    bounded-error quantiles (:class:`LogHistogram`).  ``summarize()``
    returns the same :class:`~repro.analysis.stats.SummaryStats` shape
    as the exact path, with median/p95/p99/CI read from the histogram:
    each carries the histogram's relative error bound of
    ``2**-subbits``; count, mean, min and max are exact.
    """

    __slots__ = ("welford", "histogram", "minimum", "maximum")

    def __init__(self, subbits: int = 8) -> None:
        self.welford = Welford()
        self.histogram = LogHistogram(subbits)
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    @property
    def count(self) -> int:
        return self.histogram.count

    def observe(self, value: float) -> None:
        self.histogram.add(value)  # first: it rejects NaN, inf and negatives
        self.welford.add(value)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Bulk observe, vectorized."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        self.histogram.add_many(arr)
        batch_mean = float(arr.mean())
        # numpy computes x**2 as x*x, so squaring in place keeps m2's bits.
        deviation = arr - batch_mean
        deviation *= deviation
        self.welford.add_batch(int(arr.size), batch_mean, float(deviation.sum()))
        low, high = float(arr.min()), float(arr.max())
        if self.minimum is None or low < self.minimum:
            self.minimum = low
        if self.maximum is None or high > self.maximum:
            self.maximum = high

    @classmethod
    def merged(cls, parts: Iterable["StreamingSummary"]) -> "StreamingSummary":
        """Fold shard accumulators, in the given order, into a fresh summary.

        Histogram counts, min/max, and sample counts fold exactly in
        any order or grouping; the Welford moments use Chan's formulas,
        which are exact in real arithmetic and reassociate only within
        float rounding -- callers that need bit-stable output (the
        sharded scale engine) fold in a fixed order, which this helper
        guarantees by consuming *parts* sequentially.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("merged() needs at least one summary")
        out = cls(parts[0].histogram.subbits)
        for part in parts:
            out.merge(part)
        return out

    def merge(self, other: "StreamingSummary") -> None:
        """Exact fold of a shard's accumulator (for parallel runs)."""
        self.welford.merge(other.welford)
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
        return SummaryStats(
            count=n,
            median=hist.quantile(0.5),
            p99=hist.quantile(0.99),
            mean=self.welford.mean,
            minimum=float(self.minimum),
            maximum=float(self.maximum),
            ci_low=hist.value_at_rank(lo),
            ci_high=hist.value_at_rank(hi),
            confidence=confidence,
            p95=hist.quantile(0.95),
        )


class KeyedStreamingSummary:
    """A map of :class:`StreamingSummary` accumulators, one per key.

    The multi-tenant scale engine records every tenant's sojourns into
    its own accumulator and folds per-shard maps back together.  The
    keyed merge keeps the component guarantees: histogram counts,
    min/max and sample counts fold exactly under any grouping of
    shards (keys union; a key absent from a shard contributes
    nothing), so per-key quantiles are bit-stable however the scenario
    was decomposed.  Only the Welford moments reassociate within float
    rounding -- callers that need bit-stable means divide exact integer
    totals instead, exactly like the unkeyed scale path.
    """

    __slots__ = ("subbits", "parts")

    def __init__(self, subbits: int = 8) -> None:
        self.subbits = subbits
        #: key -> accumulator; insertion order is first-observation
        #: order, but nothing below depends on it (``keys()`` sorts).
        self.parts: dict[Any, StreamingSummary] = {}

    def __len__(self) -> int:
        return len(self.parts)

    def __contains__(self, key: Any) -> bool:
        return key in self.parts

    def keys(self) -> list:
        """All keys observed so far, sorted for deterministic iteration."""
        return sorted(self.parts)

    def part(self, key: Any) -> StreamingSummary:
        """The accumulator for *key*, created empty on first use."""
        summary = self.parts.get(key)
        if summary is None:
            summary = self.parts[key] = StreamingSummary(self.subbits)
        return summary

    def observe(self, key: Any, value: float) -> None:
        self.part(key).observe(value)

    def observe_many(self, key: Any, values: Iterable[float]) -> None:
        self.part(key).observe_many(values)

    def count(self, key: Any) -> int:
        summary = self.parts.get(key)
        return 0 if summary is None else summary.count

    def total_count(self) -> int:
        return sum(summary.count for summary in self.parts.values())

    def buckets(self) -> int:
        """Total occupied histogram buckets across keys (memory gauge)."""
        return sum(len(summary.histogram) for summary in self.parts.values())

    def merge(self, other: "KeyedStreamingSummary") -> None:
        """Exact keyed fold of a shard's map (keys union)."""
        if other.subbits != self.subbits:
            raise ValueError("cannot merge keyed summaries with different subbits")
        for key, summary in other.parts.items():
            mine = self.parts.get(key)
            if mine is None:
                # Fold into a fresh accumulator rather than aliasing the
                # shard's: merges must never mutate their inputs.
                mine = self.parts[key] = StreamingSummary(self.subbits)
            mine.merge(summary)

    @classmethod
    def merged(cls, parts: Iterable["KeyedStreamingSummary"]) -> "KeyedStreamingSummary":
        """Fold shard maps, in the given order, into a fresh keyed map.

        Consuming *parts* sequentially pins the Welford fold order the
        same way :meth:`StreamingSummary.merged` does; every other
        component is order-independent.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("merged() needs at least one keyed summary")
        out = cls(parts[0].subbits)
        for part in parts:
            out.merge(part)
        return out

    def summarize(self, key: Any, confidence: float = 0.99) -> SummaryStats:
        summary = self.parts.get(key)
        if summary is None:
            raise KeyError(f"no samples recorded under key {key!r}")
        return summary.summarize(confidence)
