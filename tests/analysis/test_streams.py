"""Streaming statistics: error bounds, merges, and edge cases.

The central claim under test: :class:`LogHistogram` quantiles carry a
deterministic relative error of at most ``2**-subbits`` versus the
exact sorted-sample quantile, while memory stays proportional to the
number of occupied buckets (not samples).
"""

import math
import random
import statistics

import numpy as np
import pytest

from repro.analysis.stats import percentile, summarize
from repro.analysis.streams import (
    KeyedStreamingSummary,
    LogHistogram,
    P2Quantile,
    StreamingSummary,
    Welford,
)


# -- Welford -----------------------------------------------------------


def test_welford_matches_statistics_module():
    rng = random.Random(1)
    values = [rng.lognormvariate(10, 1.5) for _ in range(5_000)]
    w = Welford()
    for value in values:
        w.add(value)
    assert w.count == len(values)
    assert w.mean == pytest.approx(statistics.fmean(values), rel=1e-12)
    assert w.sample_variance == pytest.approx(statistics.variance(values), rel=1e-9)
    assert w.std == pytest.approx(statistics.pstdev(values), rel=1e-9)


def test_welford_merge_equals_serial():
    rng = random.Random(2)
    left = [rng.gauss(50, 9) for _ in range(777)]
    right = [rng.gauss(-3, 2) for _ in range(1_234)]
    serial = Welford()
    for value in left + right:
        serial.add(value)
    a, b = Welford(), Welford()
    for value in left:
        a.add(value)
    for value in right:
        b.add(value)
    a.merge(b)
    assert a.count == serial.count
    assert a.mean == pytest.approx(serial.mean, rel=1e-12)
    assert a.variance == pytest.approx(serial.variance, rel=1e-9)


def test_welford_empty_and_single():
    w = Welford()
    assert w.variance == 0.0
    w.add(42.0)
    assert w.mean == 42.0
    assert w.variance == 0.0  # undefined -> 0 by contract
    w.merge(Welford())  # merging an empty shard is a no-op
    assert w.count == 1


# -- P2Quantile --------------------------------------------------------


def test_p2_exact_below_five_samples():
    p2 = P2Quantile(0.5)
    with pytest.raises(ValueError):
        _ = p2.value
    p2.add(3.0)
    assert p2.value == 3.0
    p2.add(1.0)
    p2.add(2.0)
    assert p2.value == 2.0  # nearest-rank on the sorted buffer


def test_p2_converges_on_lognormal():
    rng = random.Random(3)
    values = [rng.lognormvariate(12, 0.8) for _ in range(20_000)]
    p2 = P2Quantile(0.95)
    for value in values:
        p2.add(value)
    exact = percentile(values, 95)
    assert p2.value == pytest.approx(exact, rel=0.05)


def test_p2_rejects_degenerate_quantile():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


# -- LogHistogram ------------------------------------------------------


@pytest.mark.parametrize("subbits", [4, 8])
def test_histogram_quantile_error_bound(subbits):
    """Every reported quantile r satisfies r <= exact < r*(1+2**-subbits)."""
    rng = random.Random(4)
    values = [rng.lognormvariate(14, 2.0) for _ in range(30_000)]
    hist = LogHistogram(subbits)
    hist.add_many(values)
    bound = 2.0**-subbits
    ordered = sorted(values)
    for q in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999):
        rank = max(1, min(len(ordered), round(q * (len(ordered) - 1)) + 1))
        exact = ordered[rank - 1]
        reported = hist.quantile(q)
        assert reported <= exact, f"q={q}: bucket edge must not overestimate"
        assert exact < reported * (1 + bound) * (1 + 1e-12), f"q={q}"


class DictHistogram:
    """The dict-of-buckets histogram, kept as the reference for
    :class:`LogHistogram`'s arrays: same keys, same reads."""

    def __init__(self, subbits):
        self.scale = 1 << subbits
        self.count = 0
        self.zero_count = 0
        self.buckets = {}

    def add(self, value):
        self.count += 1
        if value == 0:
            self.zero_count += 1
            return
        mantissa, exponent = math.frexp(value)
        sub = min(int((2 * mantissa - 1) * self.scale), self.scale - 1)
        key = (exponent - 1) * self.scale + sub
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def __len__(self):
        return len(self.buckets) + (1 if self.zero_count else 0)

    def reads(self):
        """What :func:`_reads` returns for a LogHistogram of the same samples."""
        ranks = [0.0] * self.zero_count
        for key in sorted(self.buckets):
            octave, sub = divmod(key, self.scale)
            ranks += [math.ldexp(1 + sub / self.scale, octave)] * self.buckets[key]
        return len(self), self.count, self.zero_count, tuple(ranks)


def _reads(hist):
    """Everything a histogram answers: len, counts and every rank."""
    ranks = tuple(hist.value_at_rank(rank) for rank in range(1, hist.count + 1))
    return len(hist), hist.count, hist.zero_count, ranks


def _reference(values, subbits=8):
    ref = DictHistogram(subbits)
    for value in values:
        ref.add(value)
    return ref.reads()


def test_histogram_scalar_and_vector_paths_identical():
    rng = random.Random(5)
    values = [rng.lognormvariate(8, 3.0) for _ in range(2_000)] + [0.0] * 17
    rng.shuffle(values)
    for subbits in (1, 8, 16):
        scalar, vector, chunked = (LogHistogram(subbits) for _ in range(3))
        for value in values:
            scalar.add(value)
        vector.add_many(values)
        for start in range(0, len(values), 300):
            chunked.add_many(values[start : start + 300])
        expected = _reference(values, subbits)
        assert _reads(scalar) == _reads(vector) == _reads(chunked) == expected, subbits
        assert scalar.zero_count == 17
        assert scalar.count == len(values)


def _merge_layouts(rng):
    """Left/right samples whose bucket ranges are disjoint, overlap, or nest."""
    yield "disjoint", (
        [rng.uniform(1, 2**10) for _ in range(800)],
        [rng.uniform(2**20, 2**30) for _ in range(900)] + [0.0] * 3,
    )
    yield "overlapping", (
        [rng.expovariate(1e-6) for _ in range(800)],
        [rng.expovariate(1e-3) for _ in range(900)],
    )
    yield "nested", (
        [rng.lognormvariate(10, 4.0) for _ in range(800)],
        [rng.lognormvariate(10, 0.2) for _ in range(900)],
    )


def test_histogram_merge_equals_serial():
    rng = random.Random(6)
    for layout, (left, right) in _merge_layouts(rng):
        for subbits in (1, 8, 16):
            serial = LogHistogram(subbits)
            serial.add_many(left + right)
            a, b = LogHistogram(subbits), LogHistogram(subbits)
            a.add_many(left)
            b.add_many(right)
            empty = LogHistogram(subbits)
            empty.merge(a)  # into an empty histogram
            a.merge(b)
            a.merge(LogHistogram(subbits))  # an empty one in
            expected = _reference(left + right, subbits)
            assert _reads(a) == _reads(serial) == expected, (layout, subbits)
            # Merges never alias or mutate their inputs.
            b.add_many(left)
            empty.add_many(right)
            assert _reads(empty) == _reads(b) == _reads(a) == expected, (layout, subbits)
    with pytest.raises(ValueError):
        a.merge(LogHistogram(4))


def test_histogram_memory_is_bounded():
    """10^5 samples across 30 octaves stay within subbits*octaves buckets."""
    rng = random.Random(7)
    hist = LogHistogram(8)
    hist.add_many([rng.uniform(1, 2**30) for _ in range(100_000)])
    octaves = 31
    assert len(hist) <= octaves * 256
    assert hist.count == 100_000


def test_histogram_zero_and_negative():
    hist = LogHistogram()
    hist.add(0.0)
    assert hist.quantile(0.5) == 0.0
    assert len(hist) == 1
    with pytest.raises(ValueError):
        hist.add(-1.0)
    with pytest.raises(ValueError):
        hist.add_many([1.0, -2.0])
    with pytest.raises(ValueError):
        LogHistogram(0)


def test_histogram_rank_edges():
    hist = LogHistogram()
    hist.add_many([1.0, 2.0, 4.0])
    assert hist.value_at_rank(1) == 1.0
    assert hist.value_at_rank(3) == 4.0
    with pytest.raises(ValueError):
        hist.value_at_rank(0)
    with pytest.raises(ValueError):
        hist.value_at_rank(4)
    with pytest.raises(ValueError):
        hist.quantile(1.5)
    with pytest.raises(ValueError):
        LogHistogram().quantile(0.5)


def test_histogram_exact_powers_of_two_report_themselves():
    hist = LogHistogram()
    hist.add_many([2.0**k for k in range(-10, 40)])
    for k in range(-10, 40):
        rank = k + 11
        assert hist.value_at_rank(rank) == 2.0**k


def _frexp_keys(values, subbits):
    """The ``frexp`` bucket keys ``add_many`` used before it read the bits."""
    scale = 1 << subbits
    mantissa, exponent = np.frexp(values)
    sub = np.clip(((2 * mantissa - 1) * scale).astype(np.int64), 0, scale - 1)
    return (exponent.astype(np.int64) - 1) * scale + sub


def _normal_doubles():
    """Positive normal doubles across the whole exponent range, plus the
    edges: powers of two and their neighbours, 1.0, the smallest normal
    and the largest finite double."""
    rng = np.random.default_rng(31)
    smallest, largest = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    bits = rng.integers(
        np.float64(smallest).view(np.int64), np.float64(largest).view(np.int64),
        size=30_000, endpoint=True,
    )
    powers = np.ldexp(1.0, np.arange(-1022, 1024))
    edges = np.concatenate(
        (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), [1.0, smallest, largest])
    )
    edges = edges[(edges >= smallest) & (edges <= largest)]
    return np.concatenate((bits.view(np.float64), edges))


@pytest.mark.parametrize("subbits", range(1, 17))
def test_bit_keys_equal_frexp_keys(subbits):
    """add_many's IEEE-754 bit keys are the frexp keys for every normal double."""
    values = _normal_doubles()
    hist = LogHistogram(subbits)
    hist.add_many(values)
    keys, counts = np.unique(_frexp_keys(values, subbits), return_counts=True)
    assert np.array_equal(hist._keys, keys)
    assert np.array_equal(hist._counts, counts)
    assert hist.count == values.size and hist.zero_count == 0


@pytest.mark.parametrize("subbits", [1, 8, 16])
def test_subnormals_share_a_bucket_through_add_and_add_many(subbits):
    tiny = np.finfo(np.float64).tiny
    values = [5e-324, 1e-310, float(np.nextafter(tiny, 0.0)), tiny, 1.0, 0.0, 3e-320]
    scalar, vector = LogHistogram(subbits), LogHistogram(subbits)
    for value in values:
        scalar.add(value)
    vector.add_many(values)
    assert np.array_equal(scalar._keys, vector._keys)
    assert _reads(scalar) == _reads(vector) == _reference(values, subbits)
    # Each subnormal keeps its own octave below the smallest normal's.
    assert vector.value_at_rank(2) == 5e-324


@pytest.mark.parametrize(
    "bad",
    [
        [1.0, math.inf, 2.0],
        [1.0, math.nan, 2.0],
        [0.0, math.nan],
        [0.0, math.inf],
        [-math.inf],
        [math.nan],
        [1.0, -2.0],
    ],
)
def test_histogram_rejects_non_finite_before_counting(bad):
    hist = LogHistogram()
    hist.add_many([0.0, 3.0, 7.0])
    before = (hist.count, hist.zero_count, len(hist))
    with pytest.raises(ValueError):
        hist.add_many(bad)
    assert (hist.count, hist.zero_count, len(hist)) == before
    for value in bad:
        if not 0 <= value < math.inf:
            with pytest.raises(ValueError):
                hist.add(value)
            assert (hist.count, hist.zero_count, len(hist)) == before
    assert hist.value_at_rank(3) == _reference([0.0, 3.0, 7.0])[3][2]


# -- StreamingSummary --------------------------------------------------


def test_streaming_summary_tracks_exact_path():
    """Streaming summarize() vs stats.summarize on the same sample."""
    rng = random.Random(8)
    values = [rng.lognormvariate(13, 1.0) for _ in range(50_000)]
    stream = StreamingSummary()
    stream.observe_many(values)
    exact = summarize(values)
    approx = stream.summarize()
    bound = 2.0**-8
    assert approx.count == exact.count
    assert approx.mean == pytest.approx(exact.mean, rel=1e-9)
    assert approx.minimum == exact.minimum
    assert approx.maximum == exact.maximum
    for name in ("median", "p95", "p99", "ci_low", "ci_high"):
        a, e = getattr(approx, name), getattr(exact, name)
        assert abs(a - e) / e <= bound * 1.01, name


def test_streaming_summary_scalar_vector_merge_agree():
    rng = random.Random(9)
    values = [rng.expovariate(1e-4) for _ in range(3_000)]
    scalar = StreamingSummary()
    for value in values:
        scalar.observe(value)
    vector = StreamingSummary()
    vector.observe_many(values)
    sharded = StreamingSummary()
    shard = StreamingSummary()
    sharded.observe_many(values[: len(values) // 2])
    shard.observe_many(values[len(values) // 2 :])
    sharded.merge(shard)
    for other in (vector, sharded):
        assert other.count == scalar.count
        assert _reads(other.histogram) == _reads(scalar.histogram)
        assert other.minimum == scalar.minimum
        assert other.maximum == scalar.maximum
        assert other.welford.mean == pytest.approx(scalar.welford.mean, rel=1e-12)


def _split(values, ways):
    """Contiguous split into *ways* shards (uneven tails included)."""
    size = -(-len(values) // ways)
    return [values[i : i + size] for i in range(0, len(values), size)]


@pytest.mark.parametrize("ways", [1, 2, 4, 8])
def test_merged_fold_invariant_across_split_arity(ways):
    """K-way shard folds agree with the serial stream for K in 1..8.

    Histogram buckets, counts, and min/max are integer-exact whatever
    the grouping; the Welford moments (Chan's formulas) reassociate
    only within float rounding, so mean/variance compare approximately.
    """
    rng = random.Random(20)
    values = [rng.lognormvariate(13, 1.2) for _ in range(4_000)]
    serial = StreamingSummary()
    serial.observe_many(values)
    parts = []
    for shard in _split(values, ways):
        part = StreamingSummary()
        part.observe_many(shard)
        parts.append(part)
    merged = StreamingSummary.merged(parts)
    assert merged.count == serial.count
    assert _reads(merged.histogram) == _reads(serial.histogram)
    assert merged.minimum == serial.minimum
    assert merged.maximum == serial.maximum
    assert merged.welford.mean == pytest.approx(serial.welford.mean, rel=1e-12)
    assert merged.welford.variance == pytest.approx(serial.welford.variance, rel=1e-9)
    a, b = merged.summarize(), serial.summarize()
    assert (a.median, a.p95, a.p99, a.ci_low, a.ci_high) == (
        b.median,
        b.p95,
        b.p99,
        b.ci_low,
        b.ci_high,
    )


def test_merged_fold_commutes_and_associates():
    """Any order/grouping of shard merges yields the same histogram state.

    This is what lets the sharded scale engine fold shard results in
    shard order and still claim worker-count independence: dispatch
    order never reaches the fold.
    """
    rng = random.Random(21)
    shards = []
    for _ in range(4):
        part = StreamingSummary()
        part.observe_many([rng.expovariate(1e-5) for _ in range(500)])
        shards.append(part)
    forward = StreamingSummary.merged(shards)
    backward = StreamingSummary.merged(list(reversed(shards)))
    paired_left = StreamingSummary.merged([shards[0], shards[1]])
    paired_right = StreamingSummary.merged([shards[2], shards[3]])
    nested = StreamingSummary.merged([paired_left, paired_right])
    for other in (backward, nested):
        assert other.count == forward.count
        assert _reads(other.histogram) == _reads(forward.histogram)
        assert other.minimum == forward.minimum
        assert other.maximum == forward.maximum
        assert other.welford.mean == pytest.approx(forward.welford.mean, rel=1e-12)


def test_merged_requires_at_least_one_part():
    with pytest.raises(ValueError):
        StreamingSummary.merged([])


def test_streaming_summary_empty_cases():
    stream = StreamingSummary()
    with pytest.raises(ValueError):
        stream.summarize()
    stream.observe_many([])  # no-op
    stream.merge(StreamingSummary())  # merging empty is a no-op
    assert stream.count == 0
    stream.observe(5.0)
    summary = stream.summarize()
    assert summary.count == 1
    assert summary.minimum == summary.maximum == 5.0
    assert not math.isnan(summary.median)


def test_streaming_summary_rejects_non_finite_before_moving():
    stream = StreamingSummary()
    stream.observe_many([2.0, 4.0])
    before = (stream.count, stream.welford.count, stream.welford.mean, stream.minimum, stream.maximum)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            stream.observe(bad)
        with pytest.raises(ValueError):
            stream.observe_many([1.0, bad, 3.0])
        after = (stream.count, stream.welford.count, stream.welford.mean, stream.minimum, stream.maximum)
        assert after == before
    assert stream.summarize().count == 2


def test_streaming_summary_m2_is_the_squared_deviation_sum():
    """observe_many squares deviations in place; m2 keeps the x**2 bits."""
    rng = np.random.default_rng(5)
    values = rng.lognormal(19.8, 0.6, size=65_536).astype(np.int64)
    stream = StreamingSummary()
    stream.observe_many(values)
    floats = values.astype(np.float64)
    assert stream.welford.mean == float(floats.mean())
    assert stream.welford._m2 == float(((floats - floats.mean()) ** 2).sum())


# -- KeyedStreamingSummary ---------------------------------------------


def _keyed_samples():
    """Three tenants with very uneven sample counts (2400 / 320 / 11)."""
    rng = random.Random(22)
    samples = []
    for key, count, mu in (("hot", 2_400, 10.0), ("bursty", 320, 12.0), ("batch", 11, 14.0)):
        samples.extend((key, rng.lognormvariate(mu, 1.1)) for _ in range(count))
    rng.shuffle(samples)
    return samples


def _keyed_part(samples):
    part = KeyedStreamingSummary()
    for key, value in samples:
        part.observe(key, value)
    return part


@pytest.mark.parametrize("ways", [1, 2, 4, 8])
def test_keyed_merged_invariant_across_split_arity(ways):
    """Per-key accumulators fold exactly for K in 1..8, tenants unevenly
    spread across the shards (contiguous splits of a shuffled stream, so
    the 11-sample tenant can be entirely absent from most shards)."""
    samples = _keyed_samples()
    serial = _keyed_part(samples)
    merged = KeyedStreamingSummary.merged(
        [_keyed_part(shard) for shard in _split(samples, ways)]
    )
    assert set(merged.parts) == set(serial.parts)
    assert merged.total_count() == serial.total_count()
    assert merged.buckets() == serial.buckets()
    for key in serial.parts:
        assert merged.count(key) == serial.count(key)
        a, b = merged.summarize(key), serial.summarize(key)
        assert (a.median, a.p95, a.p99, a.minimum, a.maximum) == (
            b.median,
            b.p95,
            b.p99,
            b.minimum,
            b.maximum,
        )
        assert a.mean == pytest.approx(b.mean, rel=1e-12)


def test_keyed_merged_commutes_and_associates():
    """Shard order and grouping never reach the per-key histograms."""
    samples = _keyed_samples()
    shards = [_keyed_part(shard) for shard in _split(samples, 4)]
    forward = KeyedStreamingSummary.merged(shards)
    backward = KeyedStreamingSummary.merged(list(reversed(shards)))
    nested = KeyedStreamingSummary.merged(
        [
            KeyedStreamingSummary.merged([shards[0], shards[1]]),
            KeyedStreamingSummary.merged([shards[2], shards[3]]),
        ]
    )
    for other in (backward, nested):
        assert set(other.parts) == set(forward.parts)
        for key in forward.parts:
            assert other.count(key) == forward.count(key)
            assert _reads(other.parts[key].histogram) == _reads(forward.parts[key].histogram)
            assert other.parts[key].minimum == forward.parts[key].minimum
            assert other.parts[key].maximum == forward.parts[key].maximum
            assert other.parts[key].welford.mean == pytest.approx(
                forward.parts[key].welford.mean, rel=1e-12
            )


def test_keyed_merge_never_aliases_shard_state():
    """Folding a shard in must deep-copy unseen keys, not alias them."""
    shard = KeyedStreamingSummary()
    shard.observe("only-here", 7.0)
    out = KeyedStreamingSummary.merged([shard])
    out.observe("only-here", 9.0)
    assert shard.count("only-here") == 1
    assert out.count("only-here") == 2


def test_keyed_merge_validates_and_raises_on_unknown_key():
    left = KeyedStreamingSummary(subbits=8)
    with pytest.raises(ValueError):
        left.merge(KeyedStreamingSummary(subbits=4))
    with pytest.raises(KeyError):
        left.summarize("never-observed")
    assert left.count("never-observed") == 0
