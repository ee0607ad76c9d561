"""The default scale engine against the per-event heap referee.

Under the ``queue`` policy the default engine walks no events: it runs the exact c-server FIFO recurrence
and counts events in closed form.  The contract is a fingerprint
bit-identical to the per-event heap referee -- across all three
arrival shapes, saturated and unsaturated.  Plus the retired
``lease_lane`` knob and engine selectors failing at the config and CLI
boundary, and the ``--profile`` path.

The test names keep the ``lane`` wording of the lease-lane engine the
recurrence replaced, so their history stays comparable.
"""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.scale import run_scale, run_scale_referee
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
    heap = run_scale_referee(**kwargs).fingerprint()
    default = _fp(**kwargs)
    assert default == heap
    assert (heap["queued"] > 0) == (load is SATURATED)


def test_default_engine_walks_no_events():
    result = run_scale(**SATURATED)
    referee = run_scale_referee(**SATURATED)
    # No environment -- yet the closed-form event count is the event
    # engine's.
    assert result.occupancy == {}
    assert result.events_processed == referee.events_processed


def test_lease_lane_validation(capsys):
    # Retired knobs: the config layer and the CLI both refuse them.
    # The referees are reached through their own entries, not a knob.
    with pytest.raises(TypeError, match="lease_lane"):
        run_scale(lease_lane="on", **UNSATURATED)
    with pytest.raises(TypeError, match="admission"):
        run_scale(admission="per-event", **UNSATURATED)
    for argv in (
        ["scale", "--quick", "--lease-lane", "on"],
        ["scale", "--quick", "--admission", "per-event"],
        ["multitenant", "--quick", "--admission", "per-event"],
        ["control", "--quick", "--driver", "reference"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[2] in capsys.readouterr().err


def test_profile_prints_report(capsys):
    run_scale(profile=True, **UNSATURATED)
    out = capsys.readouterr().out
    assert "cumulative" in out and "drive" in out


def test_profile_archives_to_path(tmp_path):
    dest = tmp_path / "scale.pstats"
    run_scale(profile=str(dest), **UNSATURATED)
    assert dest.exists() and dest.stat().st_size > 0
    assert (tmp_path / "scale.pstats.txt").exists()


def test_profile_covers_every_arrival_shape(capsys):
    run_scale(arrival_shape="diurnal", profile=True, **UNSATURATED)
    out = capsys.readouterr().out
    assert "cumulative" in out and "drive" in out
