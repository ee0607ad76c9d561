"""Fig. 10: parallel scalability, 1-32 worker threads.

One client dispatches simultaneously to N workers; payloads 1 kB and
1 MB; hot/warm x bare-metal/Docker.  Expected shape: 1 kB flat in N,
1 MB growing once N x 1 MB saturates the client's 100 Gb/s link --
"rFaaS scaling is limited only by the available bandwidth".
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

from repro.analysis.reporting import Table, format_bytes, format_ns
from repro.analysis.stats import median
from repro.core.deployment import Deployment
from repro.sim.clock import KB, MB
from repro.workloads.noop import noop_package

DEFAULT_WORKERS = (1, 2, 4, 8, 16, 32)
DEFAULT_SIZES = (1 * KB, 1 * MB)


@dataclass
class Fig10Result:
    workers: tuple[int, ...]
    sizes: tuple[int, ...]
    #: (mode, sandbox, size) -> {workers: median per-invocation RTT}
    series: dict[tuple[str, str, int], dict[int, float]] = field(default_factory=dict)

    def flatness(self, mode: str, sandbox: str, size: int) -> float:
        """max/min median across worker counts (1.0 = perfectly flat)."""
        values = list(self.series[(mode, sandbox, size)].values())
        return max(values) / min(values)

    def table(self) -> Table:
        table = Table(
            "Fig. 10 -- parallel executors (median invocation RTT)",
            ["series"] + [f"w={w}" for w in self.workers],
        )
        for key, by_workers in sorted(self.series.items()):
            mode, sandbox, size = key
            table.add_row(
                f"{mode}/{sandbox}/{format_bytes(size)}",
                *[format_ns(by_workers[w]) for w in self.workers],
            )
        return table


def _measure(workers: int, size: int, mode: str, sandbox: str, repetitions: int) -> float:
    dep = Deployment.build(executors=max(1, -(-workers // 36)), clients=1)
    dep.settle()
    invoker = dep.new_invoker()
    package = noop_package()
    hot_timeout = None if mode == "hot" else 0

    def driver():
        yield from invoker.allocate(
            package,
            workers=workers,
            sandbox=sandbox,
            hot_timeout_ns=hot_timeout,
            worker_buffer_bytes=2 * size + 64,
        )
        in_bufs = [invoker.alloc_input(size) for _ in range(workers)]
        out_bufs = [invoker.alloc_output(size) for _ in range(workers)]
        payload = bytes(size)
        for buf in in_bufs:
            buf.write(payload)
        rtts: list[int] = []
        for _ in range(repetitions):
            futures = [
                invoker.submit("echo", in_bufs[i], size, out_bufs[i], worker=i)
                for i in range(workers)
            ]
            for future in futures:
                result = yield future.wait()
                rtts.append(result.rtt_ns)
        return rtts

    return median(dep.run(driver()))


def run_fig10(
    workers: tuple[int, ...] = DEFAULT_WORKERS,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    repetitions: int = 5,
    modes: tuple[str, ...] = ("hot", "warm"),
    sandboxes: tuple[str, ...] = ("bare-metal", "docker"),
) -> Fig10Result:
    result = Fig10Result(workers=tuple(workers), sizes=tuple(sizes))
    for mode in modes:
        for sandbox in sandboxes:
            for size in sizes:
                series: dict[int, float] = {}
                for n in workers:
                    series[n] = _measure(n, size, mode, sandbox, repetitions)
                    # A deployment's parts sit in reference cycles (the
                    # fabric and its NICs, among others): free them before
                    # the next point builds its own, so peak memory follows
                    # one point rather than the collector's timing.
                    gc.collect()
                result.series[(mode, sandbox, size)] = series
    return result
