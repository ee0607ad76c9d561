"""Sharded scale engine: exactness, worker invariance, caching, shapes.

The contract under test (see ``run_scale_sharded``): the K-shard
decomposition of a scenario is part of its spec, and the merged result
is a pure function of that spec -- identical across repeats and across
``parallel`` worker counts.  In partition mode on an unsaturated pool
the decomposition is *exact*: K shards merge back to the 1-shard (and
single-process) result bit for bit -- the mean included, since it is
one division of exact integer sojourn totals.
"""

import pytest

from repro.experiments.scale import (
    ScaleResult,
    ShardedScaleResult,
    run_scale,
    run_scale_sharded,
)
from repro.sim.clock import us
from repro.sim.rng import derive_seed, shard_seed, shard_seeds

#: Pool never saturates (slots >= invocations): the exact-partition regime.
UNSATURATED = {"invocations": 1_500, "workers": 2_048, "mean_arrival_gap_ns": us(25)}
#: Pool saturates: the FIFO backlog path runs inside every shard.
SATURATED = {"invocations": 3_000, "workers": 256, "mean_arrival_gap_ns": us(25)}


def _agree(a, b):
    """Fingerprints equal key by key (names the first diverging key)."""
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == b[key], key


# -- seed derivation ---------------------------------------------------


def test_shard_seed_uses_derive_chain():
    assert shard_seed(0x5CA1E, 3) == derive_seed(0x5CA1E, "shard", "3")
    seeds = shard_seeds(0x5CA1E, 4)
    assert len(set(seeds)) == 4
    assert seeds[3] == shard_seed(0x5CA1E, 3)
    with pytest.raises(ValueError):
        shard_seeds(0x5CA1E, 0)


# -- exactness of the partition decomposition --------------------------


def test_one_shard_partition_equals_legacy_driver():
    legacy = run_scale(**UNSATURATED)
    sharded = run_scale_sharded(shards=1, parallel=1, **UNSATURATED)
    assert isinstance(legacy, ScaleResult)
    assert isinstance(sharded, ShardedScaleResult)
    assert sharded.fingerprint() == legacy.fingerprint()


def test_partition_is_exact_across_shard_counts_when_unsaturated():
    base = run_scale_sharded(shards=1, parallel=1, **UNSATURATED).fingerprint()
    for shards in (2, 3):
        other = run_scale_sharded(shards=shards, parallel=1, **UNSATURATED)
        _agree(base, other.fingerprint())
        assert other.queued == 0


def test_merged_result_independent_of_worker_count():
    serial = run_scale_sharded(shards=2, parallel=1, **SATURATED)
    forked = run_scale_sharded(shards=2, parallel=2, **SATURATED)
    assert serial.fingerprint() == forked.fingerprint()  # bit-for-bit
    assert serial.shard_seeds == forked.shard_seeds
    assert serial.queued > 0  # the backlog path actually ran


def test_repeat_determinism():
    a = run_scale_sharded(shards=2, parallel=1, **SATURATED)
    b = run_scale_sharded(shards=2, parallel=1, **SATURATED)
    assert a.fingerprint() == b.fingerprint()


def test_thin_mode_deterministic_but_distinct():
    thin1 = run_scale_sharded(shards=2, shard_split="thin", parallel=1, **UNSATURATED)
    thin2 = run_scale_sharded(shards=2, shard_split="thin", parallel=2, **UNSATURATED)
    part = run_scale_sharded(shards=2, parallel=1, **UNSATURATED)
    assert thin1.fingerprint() == thin2.fingerprint()
    assert thin1.final_now_ns != part.final_now_ns  # different realization
    assert thin1.completed == part.completed == UNSATURATED["invocations"]


# -- shape smoke through the sharded path ------------------------------


@pytest.mark.parametrize("shape", ["bursty", "diurnal"])
def test_arrival_shapes_complete_and_reproduce(shape):
    a = run_scale(arrival_shape=shape, shards=2, parallel=1, **UNSATURATED)
    b = run_scale(arrival_shape=shape, shards=2, parallel=1, **UNSATURATED)
    assert isinstance(a, ShardedScaleResult)
    assert a.completed == UNSATURATED["invocations"]
    assert a.fingerprint() == b.fingerprint()


# -- default engine vs per-event admission, every shape ----------------


@pytest.mark.parametrize("shape", ["poisson", "bursty", "diurnal"])
def test_batch_auto_invariant_across_shard_counts(shape):
    """The default engine (batch admission) keeps the
    K-shard partition exact for every arrival shape, and is
    bit-identical to per-event admission of the same sharded
    streams."""
    fingerprints = {
        shards: run_scale(
            arrival_shape=shape,
            shards=shards,
            parallel=1,
            scheduler="wheel",
            granularity_bits="auto",
            admission="batch",
            **UNSATURATED,
        ).fingerprint()
        for shards in (1, 2)
    }
    _agree(fingerprints[1], fingerprints[2])
    per_event = run_scale(
        arrival_shape=shape,
        shards=2,
        parallel=1,
        scheduler="wheel",
        granularity_bits="auto",
        admission="per-event",
        **UNSATURATED,
    )
    assert per_event.fingerprint() == fingerprints[2]


def test_bursty_shape_saturates_harder_than_poisson():
    poisson = run_scale_sharded(shards=1, parallel=1, **SATURATED)
    bursty = run_scale_sharded(
        shards=1, parallel=1, arrival_shape="bursty", burst_len=256, **SATURATED
    )
    assert bursty.max_backlog >= poisson.max_backlog


# -- caching -----------------------------------------------------------


def test_shard_results_cached_per_shard(tmp_path):
    from repro.cache import ResultCache

    root = str(tmp_path / "cache")
    first = run_scale_sharded(shards=2, parallel=1, cache_dir=root, **UNSATURATED)
    assert ResultCache(root).stats()["entries"] == 2  # one entry per shard
    second = run_scale_sharded(shards=2, parallel=1, cache_dir=root, **UNSATURATED)
    assert second.fingerprint() == first.fingerprint()
    # A different shard count is a different spec: only its own shards run.
    run_scale_sharded(shards=3, parallel=1, cache_dir=root, **UNSATURATED)
    assert ResultCache(root).stats()["entries"] == 5


# -- guard rails -------------------------------------------------------


def test_rejects_degenerate_decompositions():
    with pytest.raises(ValueError):
        run_scale_sharded(shards=0, **UNSATURATED)
    with pytest.raises(ValueError):
        run_scale_sharded(invocations=4, workers=64, shards=8)
    with pytest.raises(ValueError):
        run_scale_sharded(invocations=64, workers=4, shards=8)
    with pytest.raises(RuntimeError, match="sharded scale run failed"):
        run_scale_sharded(shards=2, shard_split="nope", parallel=1, **UNSATURATED)


def test_fingerprint_keys_match_unsharded_result():
    legacy = run_scale(**UNSATURATED)
    sharded = run_scale_sharded(shards=2, parallel=1, **UNSATURATED)
    assert set(sharded.fingerprint()) == set(legacy.fingerprint())


def test_table_renders():
    result = run_scale_sharded(shards=2, parallel=1, **UNSATURATED)
    text = result.table().render()
    assert "2 shard" in text
    assert "events/sec (merged)" in text
