"""Control-plane scale engine: kernel vs reference bit-identity, plus
scale-shaped death/reclaim behavior on the real manager.
"""

import numpy as np
import pytest

from repro.core.resource_manager import ResourceManager
from repro.experiments.control import (
    ControlConfig,
    control_streams,
    run_control,
)
from repro.rdma.fabric import Fabric
from repro.sim.core import Environment

#: Small enough that the per-event reference driver stays fast in CI.
TINY = dict(executors=32, requests=400, deaths=6)


def fingerprints(**kwargs):
    merged = dict(TINY)
    merged.update(kwargs)
    kernel = run_control(driver="kernel", **merged)
    reference = run_control(driver="reference", **merged)
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

    def test_verify_flag_runs_referee(self):
        result = run_control(driver="kernel", verify=True, **TINY)
        assert result.driver == "kernel"

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
        kernel = run_control(driver="kernel", **TINY)
        text = kernel.table().render()
        assert "Control plane" in text
        assert "grants/sec" in text


class TestConfigValidation:
    def test_unknown_driver(self):
        with pytest.raises(ValueError, match="driver"):
            run_control(driver="warp")

    def test_off_grid_period_rejected(self):
        with pytest.raises(ValueError, match="mod 16"):
            ControlConfig(renew_period_ns=100_000_001)

    def test_timeout_must_exceed_period(self):
        with pytest.raises(ValueError, match="exceed"):
            ControlConfig(renew_period_ns=100_000_000, lease_timeout_ns=80_000_002)

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
