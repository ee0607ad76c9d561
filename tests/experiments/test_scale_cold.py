"""Cold-start engine bit-identity and plumbing at the experiment layer.

The acceptance contract: under ``pool_policy`` in {cold, hybrid} the
default engine -- the reduced-event walk, which builds no environment
-- and the per-event heap referee must produce bit-identical
fingerprints across arrival shapes, keepalive on and off, and dense-gap
saturation.  Plus the knob validation boundary, the coldstart harness,
and the bench guard's cold checks.  Exact same-instant ties are
covered by ``test_scale_ties.py``.
"""

import json

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.bench import check_regression
from repro.experiments.coldstart import QUICK_KWARGS, executor_seconds, run_coldstart
from repro.experiments.scale import run_scale, run_scale_referee
from repro.sim.clock import ms, us

#: Small saturating scenario: the pool runs dry within the burst, so
#: nearly every arrival takes the cold path.
COLD = {
    "invocations": 6_000,
    "workers": 64,
    "mean_arrival_gap_ns": us(25),
    "pool_policy": "cold",
    "start_model": "remote-fork",
    "keepalive_ns": 0,
}


def _fp(**kwargs):
    return run_scale(**kwargs).fingerprint()


def _two_way(**kwargs):
    heap = run_scale_referee(**kwargs).fingerprint()
    default = _fp(**kwargs)
    assert heap == default
    return heap


@pytest.mark.parametrize("shape", ["poisson", "bursty", "diurnal"])
@pytest.mark.parametrize("policy", ["cold", "hybrid"])
def test_cold_identity_across_shapes_and_policies(shape, policy):
    fp = _two_way(**{**COLD, "pool_policy": policy, "arrival_shape": shape})
    assert fp["cold_starts"] > 0


def test_cold_identity_dense_gap_saturated():
    # Arrivals every ~40 ns against a 1 ms spawn: thousands of pending
    # spin-ups per slab, chunk admissions landing mid-backlog -- the
    # config that catches eid-tie divergence.
    fp = _two_way(
        invocations=20_000, workers=256, mean_arrival_gap_ns=40,
        pool_policy="cold", start_model="remote-fork", keepalive_ns=0,
    )
    assert fp["cold_starts"] > 15_000


@pytest.mark.parametrize("policy", ["cold", "hybrid"])
def test_cold_identity_with_keepalive_strict_kernel(policy):
    # keepalive > 0: idle reclaims read and write the pool gauges, so
    # the walk must fire them in the referee's eid order; a breathing
    # pool exercises both reclaim outcomes.
    fp = _two_way(
        invocations=8_000, workers=512, mean_arrival_gap_ns=us(2),
        arrival_shape="bursty", pool_policy=policy, hybrid_threshold=16,
        start_model="remote-fork", keepalive_ns=ms(1),
    )
    assert fp["cold_starts"] > 0
    assert fp["cold_reclaimed"] + fp["cold_retained"] > 0


@pytest.mark.parametrize("policy", ["cold", "hybrid"])
def test_keepalive_reclaims_match_referee(policy):
    # ~9 ms services against a 5 ms keepalive: the pool breathes, so
    # reclaims both tear idle executors down and find none idle.
    fp = _two_way(
        invocations=6_000, workers=256, mean_arrival_gap_ns=us(5),
        service_log_mean=16.0, pool_policy=policy, hybrid_threshold=8,
        start_model="remote-fork", keepalive_ns=ms(5),
    )
    assert fp["cold_starts"] > 0
    assert fp["cold_reclaimed"] > 0
    assert fp["cold_retained"] > 0


def test_cold_identity_mixed_warm_and_cold():
    # Pool dips in and out of dryness: warm leases, backlog pops and
    # spin-ups interleave at the same nanoseconds.
    fp = _two_way(
        invocations=8_000, workers=2_048, mean_arrival_gap_ns=us(1),
        arrival_shape="diurnal", pool_policy="hybrid", hybrid_threshold=16,
        start_model="bare-metal", keepalive_ns=0,
    )
    assert 0 < fp["cold_starts"] < fp["completed"]


def test_queue_policy_unchanged_by_cold_machinery():
    base = dict(COLD)
    base.pop("pool_policy")
    base.pop("start_model")
    base.pop("keepalive_ns")
    legacy = _fp(**base)
    queued = _fp(pool_policy="queue", **base)
    assert legacy == queued
    assert queued["cold_starts"] == 0


@pytest.mark.parametrize(
    "bad",
    [
        {"pool_policy": "tepid"},
        {"start_model": "podman"},
        {"keepalive_ns": -1},
        {"pool_policy": "hybrid", "hybrid_threshold": 0},
    ],
)
def test_cold_knob_validation(bad):
    with pytest.raises(ValueError):
        run_scale(**{**COLD, "invocations": 10, **bad})


def test_run_coldstart_quick_spectrum():
    result = run_coldstart(**QUICK_KWARGS)
    assert len(result.points) == 4  # 2 pools x 2 start models x 1 shape
    assert all(p.bit_identical for p in result.points)
    # The small pool saturates; remote-fork must beat docker's tail.
    by_key = {(p.pool_size, p.start_model): p for p in result.points}
    small_fork = by_key[(64, "remote-fork")]
    small_docker = by_key[(64, "docker")]
    assert small_fork.cold_fraction > 0.5
    assert small_fork.p99_ns < small_docker.p99_ns
    assert small_fork.executor_seconds < small_docker.executor_seconds
    rendered = result.table().render()
    assert rendered.count("\n") >= 5


@pytest.mark.parametrize("experiment", ["coldstart", "table1", "all", "bench"])
def test_cli_refuses_profile_outside_scale(experiment, capsys):
    """Only one scale run can be profiled: anything else exits 2 with a
    pointer at the single-run path, before running a thing."""
    assert cli_main([experiment, "--quick", "--profile"]) == 2
    assert "scale --pool-policy cold --profile" in capsys.readouterr().err
    with pytest.raises(TypeError, match="profile"):
        run_coldstart(profile=True)


def test_executor_seconds_accounting():
    # 10 workers for 1 s + 2 s of cold busy + 3 reclaimed x 0.5 s idle.
    assert executor_seconds(10, 1_000_000_000, 2_000_000_000, 3, 500_000_000) == (
        pytest.approx(10.0 + 2.0 + 1.5)
    )


# -- bench guard: the cold-start regression checks --------------------


_RATE = {"kernel_event_throughput": {"events_per_sec": 1_000_000}}


def _doc(tmp_path, entry):
    path = tmp_path / "BENCH.json"
    entry = {**_RATE, **entry}
    path.write_text(
        json.dumps({"schema": "rfaas-repro-bench-v1", "entries": {"base": entry}})
    )
    return str(path)


def test_guard_flags_cold_fraction_blowup(tmp_path):
    baseline = _doc(tmp_path, {"coldstart": {"cold_fraction": 0.10}})
    ok = {**_RATE, "coldstart": {"cold_fraction": 0.35, "bit_identical": True}}
    assert check_regression(ok, baseline, "base") == []
    bad = {**_RATE, "coldstart": {"cold_fraction": 0.41, "bit_identical": True}}
    problems = check_regression(bad, baseline, "base")
    assert any("cold_fraction" in p for p in problems)


def test_guard_skips_cold_fraction_without_baseline_key(tmp_path):
    baseline = _doc(tmp_path, {"other": {}})
    results = {**_RATE, "coldstart": {"cold_fraction": 0.99, "bit_identical": True}}
    assert check_regression(results, baseline, "base") == []


def test_guard_flags_fingerprint_divergence(tmp_path):
    baseline = _doc(tmp_path, {"coldstart": {"cold_fraction": 0.10}})
    results = {**_RATE, "coldstart": {"cold_fraction": 0.10, "bit_identical": False}}
    problems = check_regression(results, baseline, "base")
    assert any("diverged" in p for p in problems)


def test_guard_flags_reclaim_divergence(tmp_path):
    baseline = _doc(tmp_path, {"coldstart": {"cold_fraction": 0.10}})
    results = {
        **_RATE,
        "coldstart": {
            "cold_fraction": 0.10,
            "bit_identical": True,
            "reclaim": {"bit_identical": False},
        }
    }
    problems = check_regression(results, baseline, "base")
    assert any("reclaim" in p for p in problems)
