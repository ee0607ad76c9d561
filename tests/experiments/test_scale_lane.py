"""The default scale engine against the per-event heap referee.

Under the ``queue`` policy the default engine (batch admission) walks
no events: it runs the exact c-server FIFO recurrence
and counts events in closed form.  The contract is a fingerprint
bit-identical to the per-event heap referee -- across all three
arrival shapes, saturated and unsaturated, and across K-shard
decompositions.  Plus the retired ``lease_lane`` knob failing at the
config and CLI boundary, and the ``--profile`` path.

The test names keep the ``lane`` wording of the lease-lane engine the
recurrence replaced, so their history stays comparable.
"""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.scale import run_scale, run_scale_sharded
from repro.sim.clock import us

#: Saturating: the FIFO backlog fills and drains.
SATURATED = {"invocations": 6_000, "workers": 1_024, "mean_arrival_gap_ns": us(25)}
#: Unsaturated: every arrival finds a free slot.
UNSATURATED = {"invocations": 3_000, "workers": 4_096, "mean_arrival_gap_ns": us(25)}


def _fp(**kwargs):
    return run_scale(**kwargs).fingerprint()


@pytest.mark.parametrize("shape", ["poisson", "bursty", "diurnal"])
@pytest.mark.parametrize("load", [SATURATED, UNSATURATED], ids=["saturated", "unsaturated"])
def test_lane_identity_across_shapes(shape, load):
    kwargs = dict(load, arrival_shape=shape)
    heap = _fp(admission="per-event", **kwargs)
    default = _fp(**kwargs)
    assert default == heap
    assert (heap["queued"] > 0) == (load is SATURATED)


def test_default_engine_walks_no_events():
    result = run_scale(**SATURATED)
    referee = run_scale(admission="per-event", **SATURATED)
    # No environment: no pooled timers -- yet the closed-form event
    # count is the event engine's.
    assert result.occupancy == {}
    assert result.timeout_pool_hits == 0
    assert result.events_processed == referee.events_processed


def test_shard_invariance_with_lane():
    # Partition split: each shard runs its own recurrence, and the
    # merge matches the referee's shards bit for bit (saturated) and
    # the 1-shard run exactly (unsaturated; the mean comes from exact
    # integer totals, so no float tolerance).
    default = run_scale_sharded(shards=2, parallel=1, **SATURATED).fingerprint()
    heap = run_scale_sharded(
        shards=2, parallel=1, admission="per-event", **SATURATED
    ).fingerprint()
    assert default == heap
    assert default["queued"] > 0
    one = run_scale_sharded(shards=1, parallel=1, **UNSATURATED).fingerprint()
    two = run_scale_sharded(shards=2, parallel=1, **UNSATURATED).fingerprint()
    assert one == two


def test_shard_k1_matches_single_driver_with_lane():
    single = run_scale(**UNSATURATED)
    sharded = run_scale_sharded(shards=1, parallel=1, **UNSATURATED)
    assert single.fingerprint() == sharded.fingerprint()


def test_lease_lane_validation(capsys):
    # The knob is retired: the config layer and the CLI both refuse it.
    with pytest.raises(TypeError, match="lease_lane"):
        run_scale(lease_lane="on", **UNSATURATED)
    with pytest.raises(TypeError, match="lease_lane"):
        run_scale_sharded(shards=2, lease_lane="off", **UNSATURATED)
    with pytest.raises(SystemExit) as exc:
        main(["scale", "--quick", "--lease-lane", "on"])
    assert exc.value.code == 2
    assert "--lease-lane" in capsys.readouterr().err


def test_profile_prints_report(capsys):
    run_scale(profile=True, **UNSATURATED)
    out = capsys.readouterr().out
    assert "cumulative" in out and "drive" in out


def test_profile_archives_to_path(tmp_path):
    dest = tmp_path / "scale.pstats"
    run_scale(profile=str(dest), **UNSATURATED)
    assert dest.exists() and dest.stat().st_size > 0
    assert (tmp_path / "scale.pstats.txt").exists()


def test_profile_rejected_on_sharded_path():
    with pytest.raises(ValueError, match="single-shard"):
        run_scale(admission="batch", profile=True, shards=2, **UNSATURATED)
