"""The four benchmark workloads.

Each workload loads one group of layers and leaves the others nearly
idle (see README.md for why each was chosen).  A workload object is
built from the benchmark seed, then

* :meth:`setup` builds what the timed rounds need and runs one warm-up
  round on ``DEFAULT_SEED`` inputs whose simulated fingerprint must
  equal the committed reference in ``fingerprints.json``;
* :meth:`run_round` runs one timed round and returns a
  :class:`RoundResult` whose ``failed`` counts every operation that
  produced wrong bytes, raised, was lost, or belongs to a round whose
  invariants or fingerprint did not hold.

Everything here is single-threaded and single-process: no fork, shard
or pool, so the reference-loop guard in ``reference.py`` holds.
"""

from __future__ import annotations

import gc
import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

#: Seed of the warm-up round checked against ``fingerprints.json``.
DEFAULT_SEED = 1

FINGERPRINTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")


@dataclass
class RoundResult:
    """What one round did: operations attempted/failed and what it simulated."""

    ops: int
    failed: int = 0
    #: Simulated-domain outputs (compared against references).
    fingerprint: dict = field(default_factory=dict)
    #: Human-readable reasons for ``failed`` (first few only).
    errors: list = field(default_factory=list)
    #: Per-round layer gauges the traced run reports (counts, not times).
    gauges: dict = field(default_factory=dict)

    def fail_all(self, reason: str) -> None:
        """Count every operation of the round as failed."""
        self.failed = self.ops
        self.errors.append(reason)


def load_references(path: str = FINGERPRINTS_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _diff(expected: Any, actual: Any, where: str = "") -> list[str]:
    """Paths at which two JSON-like values differ (empty if equal)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out: list[str] = []
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected or key not in actual:
                out.append(f"{where}/{key}: present on one side only")
            else:
                out.extend(_diff(expected[key], actual[key], f"{where}/{key}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        out = []
        for i, (a, b) in enumerate(zip(expected, actual)):
            out.extend(_diff(a, b, f"{where}[{i}]"))
        return out
    return [] if expected == actual else [f"{where}: expected {expected!r}, got {actual!r}"]


def check_fingerprint(result: RoundResult, expected: Optional[dict], label: str) -> None:
    """Fail every operation of *result* if its fingerprint differs from *expected*."""
    if expected is None:
        result.fail_all(f"{label}: no committed reference fingerprint")
        return
    # JSON round-trip: tuples become lists, int keys become strings.
    actual = json.loads(json.dumps(result.fingerprint))
    differences = _diff(expected, actual)
    if differences:
        result.fail_all(f"{label}: fingerprint differs at " + "; ".join(differences[:3]))


class Workload:
    """Interface shared by the four workloads."""

    name = ""

    def __init__(self, seed: int, references: Optional[dict] = None) -> None:
        self.seed = seed
        self.references = references if references is not None else load_references()
        #: Span recorder of a traced run (``tracing.SpanRecorder``), if any.
        self.recorder: Any = None
        self._ops_started = 0

    def start_op(self) -> None:
        """Number the operation about to start; traced spans carry the number."""
        self._ops_started += 1
        if self.recorder is not None:
            self.recorder.mark_op(self._ops_started)

    def setup(self) -> RoundResult:  # pragma: no cover - interface
        raise NotImplementedError

    def run_round(self) -> RoundResult:  # pragma: no cover - interface
        raise NotImplementedError

    def reference_for(self, key: str) -> Optional[dict]:
        return self.references.get(self.name, {}).get(key)


# -- hot_invoke ----------------------------------------------------------------

#: Payload sizes the closed loop cycles through: inlined, one MTU-ish
#: frame, and a multi-packet transfer (the Fig. 8 size axis).
HOT_SIZES = (64, 1024, 65536)
#: Concurrent invocations (one per leased worker).
HOT_LANES = 4
#: Invocations per lane per round: 600 per round, ~0.2 s on the nominal host.
HOT_PER_LANE = 150


class HotInvoke(Workload):
    """Closed loop, one client, one 4-worker lease: the hot data path."""

    name = "hot_invoke"

    def __init__(self, seed: int, references: Optional[dict] = None) -> None:
        super().__init__(seed, references)
        self.payloads = self._payloads(seed)
        self.dep: Any = None
        self.invoker: Any = None
        self.buffers: list = []

    @staticmethod
    def _payloads(seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [
            [bytearray(rng.integers(0, 256, size, dtype=np.uint8).tobytes()) for size in HOT_SIZES]
            for _ in range(HOT_LANES)
        ]

    def _build(self, payloads: list) -> None:
        from repro.core.deployment import Deployment
        from repro.workloads.noop import noop_package

        dep = Deployment.build(executors=1, clients=1)
        dep.settle()
        invoker = dep.new_invoker()
        # hot_timeout_ns=None: workers poll forever.  With the 500 ms
        # default every hot wait leaves a lazily cancelled rollback
        # timer pending for 500 simulated ms (~200k invocations here),
        # so pending events -- and RSS -- would grow with the number
        # of invocations a run completes, and a faster program would
        # read as a memory regression.
        dep.run(invoker.allocate(noop_package(), workers=HOT_LANES, hot_timeout_ns=None))
        self.buffers = [
            [
                (size, invoker.alloc_input(size), invoker.alloc_output(size), payloads[lane][i])
                for i, size in enumerate(HOT_SIZES)
            ]
            for lane in range(HOT_LANES)
        ]
        self.dep = dep
        self.invoker = invoker

    def setup(self) -> RoundResult:
        self._build(self._payloads(DEFAULT_SEED))
        result = self._round()
        check_fingerprint(result, self.reference_for("round"), "hot_invoke warm-up")
        # Timed rounds use the benchmark seed's payloads on the same
        # (already allocated) lease.
        for lane in range(HOT_LANES):
            for i, (size, in_buf, out_buf, _) in enumerate(self.buffers[lane]):
                self.buffers[lane][i] = (size, in_buf, out_buf, self.payloads[lane][i])
        return result

    def _lane(self, lane: int, stats: dict, errors: list):
        from repro.core.errors import RFaaSError

        submit = self.invoker.submit
        buffers = self.buffers[lane]
        for k in range(HOT_PER_LANE):
            size, in_buf, out_buf, payload = buffers[(lane + k) % len(HOT_SIZES)]
            # A fresh stamp per invocation, so a stale output buffer
            # cannot pass the echo check.
            self.start_op()
            payload[:8] = self._ops_started.to_bytes(8, "little")
            in_buf.write(payload)
            try:
                result = yield submit("echo", in_buf, size, out_buf).wait()
            except RFaaSError as error:
                stats["raised"] += 1
                errors.append(f"lane {lane}: {type(error).__name__}: {error}")
                continue
            rtt = result.rtt_ns
            entry = stats[size]
            entry[0] += 1
            entry[1] += rtt
            entry[2] = rtt if entry[2] < 0 else min(entry[2], rtt)
            entry[3] = max(entry[3], rtt)
            if not result.ok or result.output() != payload:
                stats["wrong"] += 1
                errors.append(f"lane {lane}: wrong echo output for {size} B")

    def _round(self) -> RoundResult:
        from repro.sim.events import AllOf

        env = self.dep.env
        ops = HOT_LANES * HOT_PER_LANE
        stats: dict = {size: [0, 0, -1, 0] for size in HOT_SIZES}
        stats["wrong"] = 0
        stats["raised"] = 0
        errors: list = []
        events0 = env.events_processed
        now0 = env.now
        lanes = [env.process(self._lane(lane, stats, errors)) for lane in range(HOT_LANES)]
        result = RoundResult(ops=ops)
        try:
            env.run(until=AllOf(env, lanes))
        except Exception as error:  # a lost invocation drains the schedule
            result.fail_all(f"hot_invoke round aborted: {type(error).__name__}: {error}")
            return result
        completed = sum(stats[size][0] for size in HOT_SIZES)
        # Wrong outputs are among the completed; the rest of the
        # shortfall raised.
        result.failed = stats["wrong"] + (ops - completed)
        result.errors = errors[:5]
        result.fingerprint = {
            "events": env.events_processed - events0,
            "sim_ns": env.now - now0,
            "rtt_ns": {str(size): stats[size] for size in HOT_SIZES},
        }
        result.gauges = {"events": env.events_processed - events0, "pending_end": _pending(env)}
        return result

    def run_round(self) -> RoundResult:
        return self._round()


def _pending(env: Any) -> int:
    """Events still scheduled in *env* (heap or wheel)."""
    pending = getattr(env, "pending_events", None)
    return pending() if callable(pending) else len(env._queue)


# -- lease_cycle ---------------------------------------------------------------

LEASE_EXECUTORS = 4
LEASE_WORKERS = 2
#: Lease cycles per round (~0.2 s).  Each round builds a fresh
#: deployment: executor teardown never frees a lease's worker buffers
#: (``HostMemory`` keeps every block it hands out, 2 x 8 MiB per
#: worker), so one long-lived deployment would grow by ~34 MB per
#: cycle.  A fresh deployment per round bounds that leak to one round's
#: cycles, and it still shows in ``peak_rss_mb``.
LEASE_CYCLES = 6
LEASE_PAYLOAD = 1024


class LeaseCycle(Workload):
    """Closed loop, one client over 4 executors: allocate, invoke, deallocate."""

    name = "lease_cycle"

    def __init__(self, seed: int, references: Optional[dict] = None) -> None:
        super().__init__(seed, references)
        self.payload = self._payload(seed)

    @staticmethod
    def _payload(seed: int) -> bytes:
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, LEASE_PAYLOAD, dtype=np.uint8).tobytes()

    def setup(self) -> RoundResult:
        result = self._round(self._payload(DEFAULT_SEED))
        check_fingerprint(result, self.reference_for("round"), "lease_cycle warm-up")
        return result

    def run_round(self) -> RoundResult:
        result = self._round(self.payload)
        check_fingerprint(result, self.reference_for("round"), "lease_cycle round")
        return result

    def _round(self, payload: bytes) -> RoundResult:
        result = self._cycles(payload)
        # The deployment is a web of reference cycles (processes <->
        # environment); collect it now, once nothing of it is
        # referenced, so this round's leaked worker buffers are
        # returned before the next round allocates its own.
        gc.collect()
        return result

    def _cycles(self, payload: bytes) -> RoundResult:
        from repro.core.deployment import Deployment
        from repro.workloads.noop import noop_package

        result = RoundResult(ops=LEASE_CYCLES)
        dep = Deployment.build(executors=LEASE_EXECUTORS, clients=1)
        dep.settle()
        env = dep.env
        invoker = dep.new_invoker()
        package = noop_package()
        in_buf = invoker.alloc_input(len(payload))
        out_buf = invoker.alloc_output(len(payload))
        in_buf.write(payload)
        capacity = _capacity(dep)
        breakdowns: list = []
        rtts: list = []
        events0 = env.events_processed
        now0 = env.now

        def cycle():
            self.start_op()
            breakdown = yield from invoker.allocate(package, workers=LEASE_WORKERS)
            out = yield invoker.submit("echo", in_buf, len(payload), out_buf).wait()
            yield from invoker.deallocate()
            return breakdown, out

        for index in range(LEASE_CYCLES):
            try:
                breakdown, out = dep.run(cycle())
            except Exception as error:  # a failed cycle is counted, not fatal
                result.failed += 1
                result.errors.append(f"cycle {index}: {type(error).__name__}: {error}")
                continue
            breakdowns.append(breakdown.as_dict())
            rtts.append(out.rtt_ns)
            if not out.ok or out.output() != payload:
                result.failed += 1
                result.errors.append(f"cycle {index}: wrong echo output")
            elif _capacity(dep) != capacity:
                result.failed += 1
                result.errors.append(f"cycle {index}: executor capacity not restored")
        result.fingerprint = {
            "events": env.events_processed - events0,
            "sim_ns": env.now - now0,
            "breakdowns": breakdowns,
            "rtt_ns": rtts,
        }
        result.gauges = {"events": env.events_processed - events0, "pending_end": _pending(env)}
        return result


def _capacity(dep: Any) -> list:
    """Free cores/memory on every executor and in the manager's records."""
    executors = [(e.free_cores, e.free_memory) for e in dep.executors]
    records = [
        (r.free_cores, r.free_memory)
        for m in dep.managers
        for r in m.executors.values()
    ]
    return executors + records


# -- scale workloads ------------------------------------------------------------


class _ScaleWorkload(Workload):
    """One scale-engine run per round, on the same scenario every round."""

    #: Invocations per timed round.
    ROUND_INVOCATIONS = 0
    #: Invocations of the set-up's default-seed check round: small, so
    #: that ``setup_s`` stays dominated by imports and set-up work rather
    #: than by a full round's (unscaled, host-noisy) run time.
    CHECK_INVOCATIONS = 0

    def __init__(self, seed: int, references: Optional[dict] = None) -> None:
        super().__init__(seed, references)
        #: Fingerprint of the first timed round; later rounds must match it.
        self._expected: Optional[dict] = None

    def _engine(self, seed: int, invocations: int) -> Any:  # pragma: no cover
        raise NotImplementedError

    def _violations(self, run: Any, invocations: int) -> str:  # pragma: no cover
        """Broken invariants of *run*, or an empty string."""
        raise NotImplementedError

    def _backlog_peak(self, run: Any) -> int:  # pragma: no cover
        raise NotImplementedError

    def _run(self, seed: int, invocations: int) -> RoundResult:
        result = RoundResult(ops=invocations)
        self.start_op()
        try:
            run = self._engine(seed, invocations)
        except Exception as error:  # e.g. run_scale raising on lost invocations
            result.fail_all(f"{self.name}: {type(error).__name__}: {error}")
            return result
        result.fingerprint = run.fingerprint()
        problem = self._violations(run, invocations)
        if problem:
            result.fail_all(f"{self.name}: {problem}")
        result.gauges = {
            "events": run.events_processed,
            "drive_s": run.wall_s,
            "queued": run.queued,
            "buckets": run.stream_buckets,
            "wheel_entries_peak": run.occupancy.get("wheel", 0),
            "backlog_peak": self._backlog_peak(run),
        }
        return result

    def setup(self) -> RoundResult:
        result = self._run(DEFAULT_SEED, self.CHECK_INVOCATIONS)
        check_fingerprint(result, self.reference_for("round"), f"{self.name} warm-up")
        return result

    def run_round(self) -> RoundResult:
        result = self._run(self.seed, self.ROUND_INVOCATIONS)
        # Same seed, same inputs: every round must simulate the same thing.
        if not result.failed:
            if self._expected is None:
                self._expected = json.loads(json.dumps(result.fingerprint))
            else:
                check_fingerprint(result, self._expected, f"{self.name} repeat")
        return result


class OpenLoop(_ScaleWorkload):
    """Open loop: the single-stream scale engine, Poisson arrivals, no queueing."""

    name = "openloop"
    ROUND_INVOCATIONS = 130_000  # ~0.4 s on the nominal host
    CHECK_INVOCATIONS = 20_000

    def _engine(self, seed: int, invocations: int) -> Any:
        from repro.experiments.scale import run_scale

        # Default wheel, batch admission, lease lane and queue policy;
        # the default 2^20-slot pool exceeds the round, so nothing queues.
        return run_scale(invocations=invocations, seed=seed)

    def _backlog_peak(self, run: Any) -> int:
        return run.max_backlog

    def _violations(self, run: Any, invocations: int) -> str:
        if run.completed != invocations or run.queued or run.max_backlog:
            return (
                f"completed {run.completed} of {invocations}, queued {run.queued}, "
                f"backlog {run.max_backlog}"
            )
        return ""


#: The isolation "aggressor" cell of the multi-tenant bench.
TENANT_CELL = {
    "rate_scale": 400.0,
    "compute_scale": 40.0,
    "workers": 1_536,
    "partitioning": "shared",
    "aggressor": "bursty-service",
    "aggressor_boost": 6.0,
}


def tenant_specs(invocations: int) -> list:
    from repro.workloads.tenants import standard_mix

    cell = TENANT_CELL
    specs = standard_mix(
        invocations=invocations,
        rate_scale=cell["rate_scale"],
        compute_scale=cell["compute_scale"],
    )
    return [
        replace(spec, rate_per_s=spec.rate_per_s * cell["aggressor_boost"])
        if spec.name == cell["aggressor"]
        else spec
        for spec in specs
    ]


class TenantMix(_ScaleWorkload):
    """Open loop: the multi-tenant engine on the shared-pool aggressor cell."""

    name = "tenant_mix"
    ROUND_INVOCATIONS = 30_000  # ~0.2 s on the nominal host
    CHECK_INVOCATIONS = 20_000

    def _engine(self, seed: int, invocations: int) -> Any:
        from repro.experiments.scale import run_tenant_scale

        return run_tenant_scale(
            specs=tenant_specs(invocations),
            workers=TENANT_CELL["workers"],
            partitioning=TENANT_CELL["partitioning"],
            seed=seed,
        )

    def _backlog_peak(self, run: Any) -> int:
        return max(t.max_backlog for t in run.tenants.values())

    def _violations(self, run: Any, invocations: int) -> str:
        arrived = sum(t.arrived for t in run.tenants.values())
        broken = [
            name for name, t in run.tenants.items() if t.arrived != t.dispatched + t.congested
        ]
        if broken or arrived != invocations or run.invocations != invocations:
            return f"arrivals not conserved for {broken or 'the mix'} ({arrived} of {invocations})"
        return ""


WORKLOADS = {cls.name: cls for cls in (HotInvoke, LeaseCycle, OpenLoop, TenantMix)}
