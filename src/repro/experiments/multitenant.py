"""Multi-tenant experiments (Sec. III-D oversubscription).

Two harnesses over the same declarative three-profile mix
(:func:`repro.workloads.tenants.standard_mix`):

* :func:`run_multitenant` -- the RPC-level experiment: three tenants
  share two spot executors through the full deployment stack (leases,
  billing, hot/warm accounting).  Claims quantified: the hot tenant
  keeps single-digit-microsecond-class latencies while sharing nodes;
  warm tenants are orders of magnitude cheaper per the billing model;
  the mix coexists without rejections as long as cores suffice.
* :func:`run_multitenant_scale` -- the million-invocation isolation
  spectrum: the same mix rescaled through the vectorized multi-tenant
  scale engine (:func:`repro.experiments.scale.run_tenant_scale`),
  sweeping the warm-pool partitioning from fully ``pinned`` (strong
  isolation, stranded capacity) through ``overflow`` to fully
  ``shared`` (best utilization, noisy neighbours), with per-tenant
  p95/p99 sojourn, deadline-miss and congestion-rejection rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import Table, format_ns
from repro.analysis.stats import median, percentile
from repro.core.billing import BillingRates
from repro.core.config import RFaaSConfig
from repro.core.deployment import Deployment
from repro.experiments.scale import TenantScaleResult, run_tenant_scale
from repro.sim.clock import GiB, ms
from repro.sim.rng import RngStreams
from repro.workloads.tenants import TenantOutcome, TenantSpec, standard_mix


@dataclass
class MultiTenantResult:
    outcomes: dict[str, TenantOutcome]
    duration_ns: int

    def median_rtt(self, tenant: str) -> float:
        return median(self.outcomes[tenant].rtts_ns)

    def p99_rtt(self, tenant: str) -> float:
        return percentile(self.outcomes[tenant].rtts_ns, 99)

    def table(self) -> Table:
        table = Table(
            "Multi-tenant sharing -- three profiles on two spot executors",
            ["tenant", "calls", "median RTT", "p99 RTT", "redirects", "hot-poll s", "cost USD"],
        )
        for name, outcome in self.outcomes.items():
            table.add_row(
                name,
                len(outcome.rtts_ns),
                format_ns(median(outcome.rtts_ns)),
                format_ns(percentile(outcome.rtts_ns, 99)),
                outcome.redirects,
                f"{outcome.hotpoll_s:.3f}",
                f"{outcome.cost:.6f}",
            )
        return table


def run_multitenant(
    specs: list[TenantSpec] | None = None,
    seed: int = 11,
) -> MultiTenantResult:
    specs = specs or standard_mix()
    config = RFaaSConfig()
    dep = Deployment.build(executors=2, clients=len(specs), config=config)
    dep.settle()
    rng_streams = RngStreams(seed)
    outcomes: dict[str, TenantOutcome] = {spec.name: TenantOutcome(spec=spec) for spec in specs}

    def tenant_main(index: int, spec: TenantSpec):
        invoker = dep.new_invoker(client_index=index, name=spec.name)
        rng = rng_streams.stream(spec.name)
        outcome = outcomes[spec.name]
        package = spec.package()
        yield from invoker.allocate(
            package,
            workers=spec.workers,
            memory_bytes=2 * GiB,
            hot_timeout_ns=spec.hot_timeout_ns,
            timeout_ns=dep.config.lease_timeout_ns * 10,
            worker_buffer_bytes=2 * spec.payload_bytes + 64,
        )
        in_buf = invoker.alloc_input(spec.payload_bytes)
        in_buf.write(bytes(spec.payload_bytes))
        out_buf = invoker.alloc_output(64)
        # The declared profile IS the arrival calendar: absolute times
        # from sim.arrivals (bursts come pre-packed 1 ns apart, so a
        # burst submits back-to-back, throttled only by each RTT).
        started_ns = dep.env.now
        for chunk in spec.arrival_stream(rng):
            for target_ns in chunk.tolist():
                behind = target_ns - (dep.env.now - started_ns)
                if behind > 0:
                    yield dep.env.timeout(behind)
                future = invoker.submit("work", in_buf, spec.payload_bytes, out_buf)
                result = yield future.wait()
                outcome.rtts_ns.append(result.rtt_ns)
                outcome.redirects += future.redirects
        yield from invoker.deallocate()
        yield dep.env.timeout(ms(10))

    drivers = [
        dep.env.process(tenant_main(index, spec), name=f"tenant-{spec.name}")
        for index, spec in enumerate(specs)
    ]

    def supervisor():
        for driver in drivers:
            yield driver
        return None

    started = dep.env.now
    dep.run(supervisor())
    duration = dep.env.now - started

    rates = BillingRates()
    for spec in specs:
        account = dep.managers[0].billing.read_account(spec.name)
        outcome = outcomes[spec.name]
        outcome.cost = account.cost(rates)
        outcome.hotpoll_s = account.hotpoll_s
        outcome.compute_s = account.compute_s
    return MultiTenantResult(outcomes=outcomes, duration_ns=duration)


#: CI-sized multi-tenant scale scenario: ~2x10^4 invocations on a pool
#: just large enough to stay unsaturated (queued == 0), so the K-shard
#: partition split is bit-exact and the quick bench can assert the same
#: shard-identity contract as the paper-scale run.  Deadline misses
#: still occur (tight deadlines, not backlog), so the per-tenant
#: miss-rate guard has real signal; the isolation scenario saturates
#: the pool separately with its own worker count.
QUICK_KWARGS = {
    "invocations": 20_000,
    "rate_scale": 2_000.0,
    "compute_scale": 100.0,
    "workers": 1 << 15,
}


def run_multitenant_scale(
    invocations: int = 1_000_000,
    rate_scale: float = 17_500.0,
    compute_scale: float = 1_000.0,
    workers: int = 1 << 21,
    **kwargs,
) -> TenantScaleResult:
    """Million-invocation multi-tenant isolation run (the scale engine).

    Thin registry/CLI entry over :func:`repro.experiments.scale.
    run_tenant_scale`: the defaults rescale :func:`standard_mix` to
    10^6 invocations over a 2^21-slot warm pool -- arrival rates high
    enough that the bursty profile's burst epochs stress its partition
    while the mix stays unsaturated overall -- and every engine knob
    (``partitioning``, ``admission``, ``pool_policy``, ``shards``,
    ``parallel``, ...) passes straight through.
    """
    return run_tenant_scale(
        invocations=invocations,
        rate_scale=rate_scale,
        compute_scale=compute_scale,
        workers=workers,
        **kwargs,
    )
