"""Arrival-time generators: counts, monotonicity, determinism, shapes."""

import numpy as np
import pytest

from repro.sim.arrivals import (
    DIURNAL_DAY,
    SHAPES,
    _poisson_times,
    arrival_times,
    merge_tenant_streams,
)
from repro.sim.rng import RngStreams


def _collect(shape, seed=7, count=5_000, mean_gap=1_000, **kwargs):
    rng = RngStreams(seed).stream("arrivals")
    chunks = list(arrival_times(shape, rng, count, mean_gap, **kwargs))
    return np.concatenate(chunks), chunks


@pytest.mark.parametrize("shape", SHAPES)
def test_exact_count_monotone_positive(shape):
    times, chunks = _collect(shape, chunk=512)
    assert times.size == 5_000
    assert times.dtype == np.int64
    assert times[0] >= 1
    assert (np.diff(times) >= 0).all()
    # Bounded memory: no chunk exceeds the requested size.
    assert max(c.size for c in chunks) <= 512


@pytest.mark.parametrize("shape", SHAPES)
def test_deterministic_across_repeats(shape):
    a, _ = _collect(shape, seed=11)
    b, _ = _collect(shape, seed=11)
    c, _ = _collect(shape, seed=12)
    assert (a == b).all()
    assert not (a == c).all()


def test_poisson_matches_legacy_gap_recipe():
    """The poisson generator is byte-for-byte the PR 4 driver recipe."""
    rng = RngStreams(3).stream("arrivals")
    times, _ = _collect("poisson", seed=3, count=3_000, mean_gap=250, chunk=1 << 16)
    draws = rng.exponential(250, size=3_000)
    gaps = np.maximum(draws.astype(np.int64), 1)
    assert (times == np.cumsum(gaps)).all()


def test_poisson_mean_rate():
    times, _ = _collect("poisson", count=50_000, mean_gap=1_000)
    assert times[-1] / 50_000 == pytest.approx(1_000, rel=0.05)


def test_bursty_structure():
    """burst_len arrivals per epoch, spaced exactly intra_gap apart."""
    times, _ = _collect(
        "bursty", count=4_096, mean_gap=10_000, burst_len=8, burst_intra_gap_ns=3
    )
    groups = times.reshape(-1, 8)
    assert (np.diff(groups, axis=1) == 3).all()
    # Epoch gaps dominate the intra-burst spacing on average.
    epoch_gaps = np.diff(groups[:, 0])
    assert epoch_gaps.mean() > 8 * 3


def test_bursty_monotone_at_paper_scale_params():
    """Regression: epoch gaps shorter than the burst span must not
    produce decreasing times (crashed the shard driver with a negative
    timeout delay at the 1M-invocation defaults)."""
    for seed in range(5):
        times, _ = _collect(
            "bursty",
            seed=seed,
            count=200_000,
            mean_gap=250,
            burst_len=64,
            burst_intra_gap_ns=1,
        )
        assert (np.diff(times) >= 0).all()
        assert times.size == 200_000


def test_bursty_monotone_across_chunk_boundaries():
    """Overlap clamping carries the running maximum between chunks."""
    times, chunks = _collect(
        "bursty",
        count=10_000,
        mean_gap=1,  # epoch gap ~ burst_len ns, span = 7000 ns: heavy overlap
        burst_len=8,
        burst_intra_gap_ns=1_000,
        chunk=16,
    )
    assert len(chunks) > 1
    assert (np.diff(times) >= 0).all()


def test_diurnal_monotone_with_tiny_chunks():
    """The 1-ns truncation repair carries across chunk boundaries."""
    for seed in range(20):
        times, _ = _collect("diurnal", seed=seed, count=5_000, mean_gap=100, chunk=7)
        assert (np.diff(times) >= 0).all()


def test_bursty_truncates_final_burst():
    times, _ = _collect("bursty", count=100, burst_len=64)
    assert times.size == 100  # 64 + 36, not rounded up to 128


def test_diurnal_peak_trough_ratio():
    """Arrivals concentrate in high-multiplier segments of the profile."""
    period = 240_000
    times, _ = _collect(
        "diurnal",
        count=60_000,
        mean_gap=1_000,
        diurnal_period_ns=period,
        diurnal_multipliers=DIURNAL_DAY,
    )
    segment = (times % period) // (period // len(DIURNAL_DAY))
    counts = np.bincount(segment.astype(int), minlength=len(DIURNAL_DAY))
    peak = counts[9]  # multiplier 2.00
    trough = counts[1]  # multiplier 0.20
    assert peak > 5 * trough
    # The normalized profile preserves the long-run mean rate.
    assert times[-1] / 60_000 == pytest.approx(1_000, rel=0.10)


def test_diurnal_auto_period():
    times, _ = _collect("diurnal", count=2_000, mean_gap=1_000)
    assert times.size == 2_000


#: Hand-built per-tenant block streams.  Integer times collide across
#: tenants and across block boundaries; in the second set a tenant also
#: repeats a time, across its own block boundaries too.
_COLLIDING = {
    "across-tenants": [
        [[1, 3], [4, 7], [9, 12]],
        [[0, 3], [4, 8, 9], [12]],
        [[3], [5, 7, 9], [12, 13]],
    ],
    "within-tenant": [
        [[1, 3, 3], [3, 7], [9, 9, 12]],
        [[0, 3], [3, 3, 8, 9], [12]],
        [[3], [5, 7, 7, 9], [12, 12, 13]],
    ],
}


@pytest.mark.parametrize("chunk", [1, 2, 5])
@pytest.mark.parametrize("streams", list(_COLLIDING))
def test_merge_breaks_time_ties_by_ascending_tenant(streams, chunk):
    """The tenant FIFO recurrence is exact only under this order."""
    streams = [
        [np.asarray(block, dtype=np.int64) for block in blocks]
        for blocks in _COLLIDING[streams]
    ]
    merged = list(merge_tenant_streams([iter(blocks) for blocks in streams], chunk=chunk))
    columns = []
    for chunk_times, groups in merged:
        # Each group lists ascending positions; together they place
        # every arrival of the chunk once.
        column = np.full(chunk_times.size, -1)
        for tenant, group in enumerate(groups):
            assert (np.diff(group) > 0).all()
            column[group] = tenant
        assert sum(group.size for group in groups) == chunk_times.size
        assert (column >= 0).all()
        columns.append(column)
    times = np.concatenate([t for t, _ in merged])
    tenants = np.concatenate(columns)
    assert (np.diff(times) >= 0).all()
    ties = np.diff(times) == 0
    assert (np.diff(tenants)[ties] >= 0).all()
    for tenant, blocks in enumerate(streams):
        assert times[tenants == tenant].tolist() == np.concatenate(blocks).tolist()


def test_rejects_bad_arguments():
    rng = RngStreams(1).stream("arrivals")
    with pytest.raises(ValueError):
        next(arrival_times("sawtooth", rng, 10, 100))
    with pytest.raises(ValueError):
        next(arrival_times("poisson", rng, 0, 100))
    with pytest.raises(ValueError):
        next(arrival_times("poisson", rng, 10, 0))
    with pytest.raises(ValueError):
        next(arrival_times("bursty", rng, 10, 100, burst_len=0))
    with pytest.raises(ValueError):
        next(arrival_times("bursty", rng, 10, 100, burst_intra_gap_ns=-1))
    with pytest.raises(ValueError):
        next(arrival_times("diurnal", rng, 10, 100, diurnal_multipliers=()))
    with pytest.raises(ValueError):
        next(arrival_times("diurnal", rng, 10, 100, diurnal_multipliers=(1.0, -1.0)))
    with pytest.raises(ValueError):
        next(
            arrival_times(
                "diurnal", rng, 10, 100, diurnal_period_ns=2, diurnal_multipliers=DIURNAL_DAY
            )
        )


def _poisson_recipe(rng, count, mean_gap_ns, chunk):
    """The Poisson chunk recipe as written before it updated in place."""
    now, remaining = 0, count
    while remaining:
        size = min(chunk, remaining)
        gaps = np.maximum(rng.exponential(mean_gap_ns, size=size).astype(np.int64), 1)
        times = now + np.cumsum(gaps)
        now, remaining = int(times[-1]), remaining - size
        yield times


@pytest.mark.parametrize("mean_gap", [0.7, 250])
@pytest.mark.parametrize("chunk", [1, 7, 65_536])
def test_poisson_chunks_match_the_recipe(chunk, mean_gap):
    """In-place gaps, floor and cumsum yield the recipe's arrays, chunk by chunk."""
    count = 70_000 if chunk == 65_536 else 500
    got = list(_poisson_times(np.random.default_rng(3), count, mean_gap, chunk))
    want = list(_poisson_recipe(np.random.default_rng(3), count, mean_gap, chunk))
    assert len(got) == len(want)
    for ours, recipe in zip(got, want):
        assert ours.dtype == np.int64
        assert np.array_equal(ours, recipe)
