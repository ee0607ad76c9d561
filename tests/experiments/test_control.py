"""Control-plane scale engine: kernel vs reference bit-identity, plus
scale-shaped death/reclaim behavior on the real manager.
"""

import numpy as np
import pytest

from repro.core.resource_manager import ResourceManager
from repro.experiments import control
from repro.experiments.control import (
    ControlConfig,
    control_streams,
    run_control,
    run_control_referee,
)
from repro.rdma.fabric import Fabric
from repro.sim.core import Environment

#: Small enough that the per-event reference driver stays fast in CI.
TINY = dict(executors=32, requests=400, deaths=6)

#: Saturated calendars that, with TINY, reach every rare path: deaths
#: that draw an already-dead node (churn no-ops), denied and skipped
#: re-acquisitions, and a re-acquired lease stolen again.
SATURATED = {
    "churn-noops": dict(executors=16, requests=3000, deaths=40, seed=5),
    "steal-skipped": dict(
        executors=32, requests=800, deaths=12, seed=7, min_relifetime_ns=400_000_000
    ),
}


def fingerprints(**kwargs):
    merged = dict(TINY)
    merged.update(kwargs)
    kernel = run_control(**merged)
    reference = run_control_referee(**merged)
    return kernel, reference


class TestDriverAgreement:
    def test_bit_identical_with_churn(self):
        kernel, reference = fingerprints()
        assert kernel.fingerprint() == reference.fingerprint()
        assert kernel.counts["dead_nodes"] > 0
        assert kernel.counts["steals"] > 0

    def test_bit_identical_without_churn(self):
        kernel, reference = fingerprints(churn=False)
        assert kernel.fingerprint() == reference.fingerprint()
        assert kernel.counts["steals"] == 0
        assert kernel.counts["revives"] == 0

    @pytest.mark.parametrize("config", SATURATED.values(), ids=SATURATED.keys())
    def test_bit_identical_on_saturated_pools(self, config):
        kernel, reference = fingerprints(**config)
        assert kernel.fingerprint() == reference.fingerprint()

    def test_saturated_configs_reach_every_rare_path(self):
        totals = dict.fromkeys(("churn_noops", "steal_denials", "steal_skipped", "restolen"), 0)
        for config in (TINY, *SATURATED.values()):
            counts = run_control(**config).counts
            for key in ("churn_noops", "steal_denials", "steal_skipped"):
                totals[key] += counts[key]
            # A stolen lease is skipped, re-acquired (granted or denied),
            # or was itself a re-acquired lease and is not retried.
            totals["restolen"] += counts["steals"] - (
                counts["steal_skipped"] + counts["steal_grants"] + counts["steal_denials"]
            )
        assert all(totals.values()), totals

    def test_verify_flag_runs_referee(self, monkeypatch):
        replays = []
        replay = control._ReferenceDriver.run
        monkeypatch.setattr(
            control._ReferenceDriver, "run", lambda self: replays.append(self) or replay(self)
        )
        result = run_control(verify=True, **TINY)
        assert len(replays) == 1
        # Verifying changes nothing about the kernel's own result.
        assert result.fingerprint() == run_control(**TINY).fingerprint()
        assert len(replays) == 1

    def test_all_capacity_returned_at_horizon(self):
        kernel, reference = fingerprints()
        config = ControlConfig(**TINY)
        total_cores = config.executors * config.cores_per_executor
        total_memory = config.executors * config.memory_per_executor
        assert kernel.final_free_cores == reference.final_free_cores == total_cores
        assert kernel.final_free_memory == reference.final_free_memory == total_memory

    def test_lease_events_accounting(self):
        kernel, _ = fingerprints()
        counts = kernel.counts
        assert kernel.lease_events == sum(
            counts[k]
            for k in (
                "grants", "denials", "renewals", "releases", "expiries",
                "steals", "steal_grants", "steal_denials", "steal_skipped",
            )
        )

    def test_table_renders(self):
        kernel = run_control(**TINY)
        text = kernel.table().render()
        assert "Control plane" in text
        assert "grants/sec" in text


class TestConfigValidation:
    def test_unknown_driver(self):
        # The driver selector is retired: the reference has its own entry.
        with pytest.raises(TypeError, match="driver"):
            run_control(driver="reference")
        with pytest.raises(TypeError, match="driver"):
            run_control_referee(driver="reference")
        with pytest.raises(TypeError, match="subbits"):
            ControlConfig(subbits=8)

    def test_off_grid_period_rejected(self):
        with pytest.raises(ValueError, match="mod 16"):
            ControlConfig(renew_period_ns=100_000_001)

    def test_timeout_must_exceed_period(self):
        with pytest.raises(ValueError, match="exceed"):
            ControlConfig(renew_period_ns=100_000_000, lease_timeout_ns=80_000_002)

    @pytest.mark.parametrize(
        "field, value",
        [("clients", 0), ("max_request_cores", 0), ("memory_per_core", 0),
         ("max_abandon_renewals", -1), ("mean_arrival_gap_ns", -5),
         # Negative delays sit on the residue grid (-12 % 16 == 4).
         ("downtime_ns", -12), ("reacquire_delay_ns", -15), ("decision_ns", -16)],
    )
    def test_out_of_range_knob_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControlConfig(**{field: value})

    def test_streams_deterministic(self):
        config = ControlConfig(**TINY)
        a, b = control_streams(config), control_streams(config)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.end_planned, b.end_planned)
        assert np.array_equal(a.churn.death_times_ns, b.churn.death_times_ns)
        # Arrivals sit on the residue grid the drivers rely on.
        assert np.all(a.times % 16 == 0)
        assert np.all(a.churn.death_times_ns % 16 == 4)


class _RecordingConn:
    """Client-side connection stub that records termination announcements."""

    alive = True

    def __init__(self):
        self.messages = []

    def notify(self, message):
        self.messages.append(dict(message))


class TestDeclareDeadAtScale:
    """Scale-shaped death handling on the real RPC manager: one node
    death terminates every hosted lease and announces each one to the
    affected client."""

    EXECUTORS = 48
    LEASES = 96

    def _build(self):
        env = Environment()
        manager = ResourceManager(Fabric(env).attach("m"), name="m")
        for i in range(self.EXECUTORS):
            manager.register_record(
                f"x{i:03d}", host=f"x{i:03d}", port=1, cores=36, memory_bytes=64 << 30
            )
        conn = _RecordingConn()
        for i in range(self.LEASES):
            response = manager.grant_lease(
                {"client": f"c{i % 8}", "cores": 2, "memory_bytes": 1 << 30},
                conn,
            )
            assert response["type"] == "lease_granted"
        return env, manager, conn

    def _trace(self):
        env, manager, conn = self._build()
        victim = manager.executors["x007"]
        hosted = [lease.lease_id for lease in victim.leases]
        manager._handle_rpc({"type": "deregister_executor", "name": "x007"}, None)
        trace = {
            "hosted": hosted,
            "announced": [m["lease_id"] for m in conn.messages],
            "reasons": sorted({m["reason"] for m in conn.messages}),
            "free_cores": victim.free_cores,
            "active_after": len(manager.active_leases()),
        }
        # Revival restores the full envelope; the terminated leases stay gone.
        manager.revive_executor("x007")
        trace["revived_free_cores"] = victim.free_cores
        trace["leases_after_revive"] = len(victim.leases)
        manager.kill()
        return trace

    def test_death_terminates_and_announces_all_hosted_leases(self):
        trace = self._trace()
        assert len(trace["hosted"]) == self.LEASES // self.EXECUTORS
        # Every hosted lease announced, in the record's grant order.
        assert trace["announced"] == trace["hosted"]
        assert trace["reasons"] == ["executor x007 retired"]
        # Dead node keeps its capacity decremented until revival.
        assert trace["free_cores"] == 36 - 2 * len(trace["hosted"])
        assert trace["revived_free_cores"] == 36
        assert trace["leases_after_revive"] == 0
        assert trace["active_after"] == self.LEASES - len(trace["hosted"])

    def test_dead_node_excluded_until_revival(self):
        env, manager, conn = self._build()
        manager._handle_rpc({"type": "deregister_executor", "name": "x007"}, None)
        manager._rr_index = 7  # cursor parked on the dead node
        picked = manager._pick_executor(2, 1 << 30)
        assert picked is not None and picked.name != "x007"
        manager.revive_executor("x007")
        manager._rr_index = 7
        assert manager._pick_executor(2, 1 << 30).name == "x007"
        manager.kill()
