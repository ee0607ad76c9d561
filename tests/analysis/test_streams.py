"""Streaming statistics: error bounds, merges, and edge cases.

The central claims under test: :class:`LogHistogram` quantiles carry a
deterministic relative error of at most ``2**-subbits`` versus the
exact sorted-sample quantile, while memory stays proportional to the
number of occupied buckets (not samples); and a
:class:`StreamingSummary` of integer samples keeps their exact total,
so its mean does not depend on batching or merge order.
"""

import math
import random

import numpy as np
import pytest

from repro.analysis.stats import summarize
from repro.analysis.streams import KeyedStreamingSummary, LogHistogram, StreamingSummary


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
    values = [int(rng.expovariate(1e-4)) for _ in range(3_000)]
    scalar = StreamingSummary()
    for value in values:
        scalar.observe_many([value])
    vector = StreamingSummary()
    vector.observe_many(values)
    sharded = StreamingSummary()
    shard = StreamingSummary()
    sharded.observe_many(values[: len(values) // 2])
    shard.observe_many(values[len(values) // 2 :])
    sharded.merge(shard)
    assert scalar.total == sum(values)
    for other in (vector, sharded):
        assert other.count == scalar.count
        assert _reads(other.histogram) == _reads(scalar.histogram)
        assert other.minimum == scalar.minimum
        assert other.maximum == scalar.maximum
        assert other.total == scalar.total
        assert other.summarize().mean == scalar.summarize().mean == sum(values) / len(values)


def _split(values, ways):
    """Contiguous split into *ways* parts (uneven tails included)."""
    size = -(-len(values) // ways)
    return [values[i : i + size] for i in range(0, len(values), size)]


@pytest.mark.parametrize("ways", [1, 2, 4, 8])
def test_merged_fold_invariant_across_split_arity(ways):
    """K-way folds agree with the serial stream for K in 1..8.

    Histogram buckets, counts, min/max and the integer total are exact
    whatever the grouping, so every summary field compares equal.
    """
    rng = random.Random(20)
    values = [int(rng.lognormvariate(13, 1.2)) for _ in range(4_000)]
    serial = StreamingSummary()
    serial.observe_many(values)
    parts = []
    for chunk in _split(values, ways):
        part = StreamingSummary()
        part.observe_many(chunk)
        parts.append(part)
    merged = StreamingSummary.merged(parts)
    assert merged.count == serial.count
    assert _reads(merged.histogram) == _reads(serial.histogram)
    assert merged.minimum == serial.minimum
    assert merged.maximum == serial.maximum
    assert merged.total == serial.total == sum(values)
    assert merged.summarize() == serial.summarize()


def test_merged_fold_commutes_and_associates():
    """Any order/grouping of merges yields the same summary state.

    This is what lets a caller fold partial results in whatever order
    they arrive: dispatch order never reaches the fold.
    """
    rng = random.Random(21)
    parts = []
    for _ in range(4):
        part = StreamingSummary()
        part.observe_many([int(rng.expovariate(1e-5)) for _ in range(500)])
        parts.append(part)
    forward = StreamingSummary.merged(parts)
    backward = StreamingSummary.merged(list(reversed(parts)))
    paired_left = StreamingSummary.merged([parts[0], parts[1]])
    paired_right = StreamingSummary.merged([parts[2], parts[3]])
    nested = StreamingSummary.merged([paired_left, paired_right])
    for other in (backward, nested):
        assert other.count == forward.count
        assert _reads(other.histogram) == _reads(forward.histogram)
        assert other.minimum == forward.minimum
        assert other.maximum == forward.maximum
        assert other.total == forward.total
        assert other.summarize().mean == forward.summarize().mean


@pytest.mark.parametrize("ways", range(1, 9))
def test_integer_total_and_mean_are_exact_across_folds(ways):
    """Integer samples keep their exact sum through every fold: the
    total is ``int(values.sum())`` and the mean that sum over the count,
    bit for bit, however the samples are split and the parts merged."""
    rng = np.random.default_rng(40 + ways)
    values = rng.lognormal(19.8, 0.6, size=20_011).astype(np.int64)
    exact_total = int(values.sum())
    exact_mean = exact_total / values.size
    parts = []
    for chunk in np.array_split(values, ways):
        part = StreamingSummary()
        part.observe_many(chunk)
        parts.append(part)
    nested = parts[::-1]
    while len(nested) > 1:  # balanced pairwise merges of merges
        nested = [StreamingSummary.merged(nested[i : i + 2]) for i in range(0, len(nested), 2)]
    folds = {
        "forward": StreamingSummary.merged(parts),
        "reversed": StreamingSummary.merged(reversed(parts)),
        "nested": nested[0],
    }
    for label, fold in folds.items():
        assert type(fold.total) is int, label
        assert fold.total == exact_total, label
        assert fold.summarize().mean == exact_mean, label
        assert fold.count == values.size, label


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
    stream.observe_many([5.0])
    summary = stream.summarize()
    assert summary.count == 1
    assert summary.minimum == summary.maximum == 5.0
    assert not math.isnan(summary.median)


def test_streaming_summary_rejects_non_finite_before_moving():
    stream = StreamingSummary()
    stream.observe_many([2, 4])
    before = (stream.count, stream.total, stream.minimum, stream.maximum)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            stream.observe_many([bad])
        with pytest.raises(ValueError):
            stream.observe_many([1.0, bad, 3.0])
        after = (stream.count, stream.total, stream.minimum, stream.maximum)
        assert after == before
    assert stream.total == 6
    assert stream.summarize().mean == 3.0
    assert stream.summarize().count == 2


def test_streaming_summary_total_is_the_integer_sum():
    """An int64 batch sums as an exact Python int, also where the int64
    sum itself would wrap."""
    rng = np.random.default_rng(5)
    values = rng.lognormal(19.8, 0.6, size=65_536).astype(np.int64)
    stream = StreamingSummary()
    stream.observe_many(values)
    assert type(stream.total) is int and stream.total == int(values.sum())
    assert stream.summarize().mean == int(values.sum()) / values.size
    huge = np.full(4, 1 << 62, dtype=np.int64)  # sums to 2**64
    stream.observe_many(huge)
    assert stream.total == int(values.sum()) + (1 << 64)


# -- KeyedStreamingSummary ---------------------------------------------


def test_keyed_parts_summarize_their_own_samples():
    """Each key's part holds exactly its own samples; keys sort."""
    rng = random.Random(22)
    keyed = KeyedStreamingSummary()
    samples = {
        key: [int(rng.lognormvariate(mu, 1.1)) for _ in range(count)]
        for key, count, mu in (("hot", 2_400, 10.0), ("bursty", 320, 12.0), ("batch", 11, 14.0))
    }
    for key, values in samples.items():
        keyed.observe_many(key, values[: len(values) // 2])
        for value in values[len(values) // 2 :]:
            keyed.observe_many(key, [value])
    assert keyed.keys() == ["batch", "bursty", "hot"]
    for key, values in samples.items():
        alone = StreamingSummary()
        alone.observe_many(values)
        assert keyed.parts[key].total == sum(values)
        assert keyed.summarize(key) == alone.summarize()
    assert keyed.buckets() == sum(len(keyed.parts[key].histogram) for key in samples)


def test_keyed_summarize_raises_on_unknown_key():
    with pytest.raises(KeyError):
        KeyedStreamingSummary().summarize("never-observed")
