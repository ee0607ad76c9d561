"""Placement-policy contract tests.

``RoundRobinFirstFit`` must preserve the manager's historical scan
semantics exactly (these tests pin them), and ``BitmaskFirstFit`` must
make identical decisions on identical state -- the control-plane kernel
(:mod:`repro.experiments.control`) depends on that equivalence for its
bit-identity guarantee.
"""

import numpy as np

from repro.core.placement import BitmaskFirstFit, RoundRobinFirstFit
from repro.core.resource_manager import ExecutorRecord


def record(name, cores=4, memory=1000, alive=True):
    return ExecutorRecord(
        name=name,
        host=name,
        port=1,
        cores=cores,
        memory_bytes=memory,
        free_cores=cores,
        free_memory=memory,
        alive=alive,
    )


def pool(*records):
    return {r.name: r for r in records}


class TestRoundRobinFirstFit:
    def test_scans_sorted_names_from_cursor(self):
        executors = pool(record("b"), record("a"), record("c"))
        policy = RoundRobinFirstFit()
        assert policy.pick(executors, 1, 10).name == "a"
        assert policy.rr_index == 1
        assert policy.pick(executors, 1, 10).name == "b"
        assert policy.pick(executors, 1, 10).name == "c"
        # Wraps back to the start.
        assert policy.pick(executors, 1, 10).name == "a"
        assert policy.rr_index == 1

    def test_skips_record_without_capacity(self):
        executors = pool(record("a", cores=1), record("b", cores=8))
        policy = RoundRobinFirstFit()
        assert policy.pick(executors, 4, 10).name == "b"
        # Cursor lands past the winner: b is index 1, so cursor wraps to 0.
        assert policy.rr_index == 0

    def test_memory_and_core_constraints(self):
        executors = pool(record("a", memory=100), record("b", memory=1000))
        policy = RoundRobinFirstFit()
        assert policy.pick(executors, 1, 500).name == "b"
        assert policy.pick(executors, 1, 5000) is None

    def test_oversubscription_ignores_cores_only(self):
        executors = pool(record("a", cores=1, memory=100))
        policy = RoundRobinFirstFit()
        assert policy.pick(executors, 16, 50, allow_oversubscription=True).name == "a"
        assert policy.pick(executors, 16, 500, allow_oversubscription=True) is None

    def test_dead_record_consumes_scan_step_but_never_wins(self):
        executors = pool(record("a", alive=False), record("b"))
        policy = RoundRobinFirstFit()
        picked = policy.pick(executors, 1, 10)
        assert picked.name == "b"
        # b is at scan step 1 from cursor 0, so the cursor moves to
        # (0 + 1 + 1) % 2 == 0 -- the dead record counted as a step.
        assert policy.rr_index == 0

    def test_full_miss_leaves_cursor(self):
        executors = pool(record("a"), record("b"))
        policy = RoundRobinFirstFit()
        policy.pick(executors, 1, 10)
        cursor = policy.rr_index
        assert policy.pick(executors, 64, 10) is None
        assert policy.rr_index == cursor

    def test_empty_pool(self):
        policy = RoundRobinFirstFit()
        assert policy.pick({}, 1, 10) is None

    def test_membership_change_invalidates_cache(self):
        executors = pool(record("a"), record("c"))
        policy = RoundRobinFirstFit()
        policy.pick(executors, 1, 10)
        executors["b"] = record("b")
        policy.invalidate()
        names = [policy.pick(executors, 1, 10).name for _ in range(3)]
        assert sorted(names) == ["a", "b", "c"]


class TestSoAEquivalence:
    """BitmaskFirstFit must mirror RoundRobinFirstFit decision for decision."""

    def test_randomized_lockstep(self):
        rng = np.random.default_rng(7)
        size, per_core, max_cores = 12, 100, 8
        names = [f"x{i:02d}" for i in range(size)]
        # 1,000 bytes is 10 cores' worth: memory binds on 12-core
        # executors, cores bind on 6-core ones.
        for cores, memory in ((12, 1000), (6, 1000)):
            executors = {name: record(name, cores=cores, memory=memory) for name in names}
            scalar = RoundRobinFirstFit()
            masks = BitmaskFirstFit(size, cores, memory, per_core, max_cores)
            held: list[tuple[int, int]] = []  # (index, cores)

            for step in range(3000):
                action = rng.integers(0, 10)
                if action < 6:  # place a request drawn as the kernel draws it
                    want_cores = int(rng.integers(1, max_cores + 1))
                    want = scalar.pick(executors, want_cores, want_cores * per_core)
                    got = masks.place(want_cores)
                    if want is None:
                        assert got == -1, f"step {step}: scalar missed, masks picked {got}"
                    else:
                        assert names[got] == want.name, f"step {step}"
                        want.free_cores -= want_cores
                        want.free_memory -= want_cores * per_core
                        held.append((got, want_cores))
                elif action < 8 and held:  # reclaim a random holding
                    index, held_cores = held.pop(int(rng.integers(0, len(held))))
                    executors[names[index]].free_cores += held_cores
                    executors[names[index]].free_memory += held_cores * per_core
                    masks.reclaim(index, held_cores)
                elif action == 8:  # kill a random alive node
                    index = int(rng.integers(0, size))
                    if executors[names[index]].alive:
                        executors[names[index]].alive = False
                        masks.kill(index)
                        held = [h for h in held if h[0] != index]
                else:  # revive a random dead node at full capacity
                    index = int(rng.integers(0, size))
                    if not executors[names[index]].alive:
                        executors[names[index]].alive = True
                        executors[names[index]].free_cores = cores
                        executors[names[index]].free_memory = memory
                        masks.revive(index)
                assert scalar.rr_index == masks.rr_index, f"step {step}"
                assert masks.free_cores == [executors[n].free_cores for n in names]
                assert masks.free_memory == [executors[n].free_memory for n in names]
                assert masks.alive == [executors[n].alive for n in names]


class TestManagerPickExecutor:
    """The manager's `_pick_executor` delegates without behavior change."""

    def _manager(self):
        from repro.core.resource_manager import ResourceManager
        from repro.rdma.fabric import Fabric
        from repro.sim.core import Environment

        env = Environment()
        manager = ResourceManager(Fabric(env).attach("m"), name="m")
        for name in ("e2", "e0", "e1"):
            manager.register_record(name, host=name, port=1, cores=4, memory_bytes=100)
        return manager

    def test_round_robin_order_is_sorted_names(self):
        manager = self._manager()
        picks = [manager._pick_executor(1, 10).name for _ in range(4)]
        assert picks == ["e0", "e1", "e2", "e0"]

    def test_dead_executor_skipped(self):
        manager = self._manager()
        manager.executors["e0"].alive = False
        picks = [manager._pick_executor(1, 10).name for _ in range(3)]
        assert picks == ["e1", "e2", "e1"]

    def test_rr_index_proxy(self):
        manager = self._manager()
        manager._rr_index = 2
        assert manager.placement.rr_index == 2
        assert manager._pick_executor(1, 10).name == "e2"
        assert manager._rr_index == 0
