"""The traced run and the per-layer metrics computed from its spans.

Per-layer metrics come from a separate phase of a ``--trace 1`` run:
a fresh copy of the workload is built with span recorders installed on
every layer's entry points (``tracing.py``), timed the same way as the
untraced rounds, and its spans are turned into

* exact counts per operation (calls, events, bytes), and
* reference-scaled *self* time per operation for each layer, plus the
  explicit unattributed remainder; layer self times and the remainder
  sum to the traced round time (``host.traced_round_us_op``).

Each metric's unit is given with it; ``README.md`` maps every layer
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from tracing import (
    LAYERS,
    UNATTRIBUTED,
    SpanRecorder,
    Tracer,
    by_layer,
    count_by_name,
    root_time,
    round_spans,
    self_by_name,
)

#: Every layer that can own self time, in report order.
LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer in LAYERS))


@dataclass
class TracedRun:
    """What the traced phase recorded, already reduced to per-op figures."""

    rounds: list
    recorder: SpanRecorder
    ops: int
    attempted: int
    failed: int
    #: Generator calls / event counters / repro.perf counters over the timed rounds.
    calls: dict
    counters: dict
    perf: dict
    #: Spans per name over the timed rounds (calls; resumes for generators).
    spans: dict = field(default_factory=dict)
    #: The rebuilt spans (see ``SpanRecorder.arrays``).
    arrays: dict = field(default_factory=dict)
    #: Reference-scaled self nanoseconds per span name.
    self_ns: dict = field(default_factory=dict)
    attribution_us_op: dict = field(default_factory=dict)


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def traced_run(
    name: str, seed: int, seconds: float, untraced: Any, timed_phase: Callable
) -> TracedRun:
    """Build *name* afresh under the tracer and time it for *seconds*."""
    from repro import perf
    from workloads import WORKLOADS

    recorder = SpanRecorder()
    tracer = Tracer(recorder)
    try:
        tracer.install()
        for entry in tracer.missing:
            print(f"trace: entry point {entry} not found; skipped", file=sys.stderr)
        workload = WORKLOADS[name](seed)
        workload.recorder = recorder
        setup = workload.setup()
        if hasattr(untraced, "_expected"):
            # Traced rounds must simulate exactly what untraced ones did.
            workload._expected = untraced._expected
        calls0, counters0, perf0 = dict(recorder.calls), dict(recorder.counters), perf.snapshot()
        rounds = timed_phase(workload, seconds, recorder)
        calls = _delta(calls0, dict(recorder.calls))
        counters = _delta(counters0, dict(recorder.counters))
        perf_delta = perf.delta(perf0, perf.snapshot())
    finally:
        tracer.close()
    good = [r for r in rounds if not r.unguarded] or rounds
    run = TracedRun(
        rounds=good,
        recorder=recorder,
        ops=sum(r.ops for r in good),
        attempted=setup.ops + sum(r.ops for r in rounds),
        failed=setup.failed + sum(r.failed for r in rounds),
        calls=calls,
        counters=counters,
        perf=perf_delta,
    )
    _attribute(run)
    return run


def _attribute(run: TracedRun) -> None:
    """Reference-scaled self time per span name and layer over the rounds."""
    arrays = run.recorder.arrays()
    names = run.recorder.names
    self_ns: dict = defaultdict(float)
    spans: dict = defaultdict(int)
    gaps = 0.0
    total = 0.0
    for r in run.rounds:
        factor = r.factor
        sel = round_spans(arrays, r.log_start, r.log_end)
        for span, ns in self_by_name(arrays, names, sel).items():
            self_ns[span] += ns * factor
        for span, count in count_by_name(arrays, names, sel).items():
            spans[span] += count
        wall_ns = r.wall_s * 1e9
        gaps += (wall_ns - root_time(arrays, sel)) * factor
        total += wall_ns * factor
    run.spans = dict(spans)
    run.arrays = arrays
    layer_ns = by_layer(self_ns)
    layer_ns[UNATTRIBUTED] = layer_ns.get(UNATTRIBUTED, 0.0) + gaps
    run.self_ns = dict(self_ns)
    ops = max(1, run.ops)
    run.attribution_us_op = {
        layer: layer_ns.get(layer, 0.0) / ops / 1e3 for layer in (*LAYER_NAMES, UNATTRIBUTED)
    }
    run.attribution_us_op["total"] = total / ops / 1e3


def per_layer_metrics(
    run: TracedRun, untraced: list, summary: dict, failed: int, attempted: int
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    ops = max(1, run.ops)
    rounds = max(1, len(run.rounds))
    calls, counters, perf, spans = run.calls, run.counters, run.perf, run.spans

    def us(value_ns: float) -> float:
        return value_ns / ops / 1e3

    def span_us(*spans: str) -> float:
        return us(sum(run.self_ns.get(s, 0.0) for s in spans))

    def per_op(count: float) -> float:
        return count / ops

    def gauge_max(key: str) -> float:
        return float(max((r.gauges.get(key, 0) for r in run.rounds), default=0))

    events = sum(r.gauges.get("events", 0) for r in run.rounds)
    resumes = sum(v for k, v in spans.items() if k.startswith("proc:"))
    polls = spans.get("rdma.completion.poll", 0)
    drive = [
        (r.wall_s - r.gauges["drive_s"]) * r.factor * 1e3
        for r in untraced
        if "drive_s" in r.gauges
    ]
    traced_ops_per_s = float(np.median([r.ops / r.scaled_s for r in run.rounds]))
    untraced_ops = sum(r.ops for r in untraced)
    metrics: dict[str, tuple[float, str]] = {
        "sim.events_op": (per_op(events), "count"),
        "sim.resumes_op": (per_op(resumes), "count"),
        "sim.pending_end": (gauge_max("pending_end"), "count"),
        "sim.wheel.batch_us_op": (span_us("sim.wheel.batch"), "us"),
        "sim.wheel.lane_admits_op": (per_op(spans.get("sim.wheel.lane.admit", 0)), "count"),
        "sim.wheel.lane_us_op": (span_us("sim.wheel.lane.admit", "sim.wheel.lane.drain"), "us"),
        "sim.wheel.entries_peak": (gauge_max("wheel_entries_peak"), "count"),
        "sim.wheel.reanchors": (perf.get("wheel_reanchors", 0) / rounds, "count/round"),
        "sim.wheel.cascades": (perf.get("wheel_cascades", 0) / rounds, "count/round"),
        "sim.arrivals.gen_us_op": (span_us("sim.arrivals.gen", "sim.arrivals.merge"), "us"),
        "rdma.queue_pair.posts_op": (per_op(spans.get("rdma.queue_pair.post", 0)), "count"),
        "rdma.completion.polls_op": (per_op(polls), "count"),
        "rdma.completion.hit_frac": (
            counters.get("rdma.completion.poll_hits", 0) / polls if polls else 0.0,
            "ratio",
        ),
        "rdma.fabric.transfers_op": (per_op(calls.get("rdma.fabric.transfer", 0)), "count"),
        "rdma.memory.copied_bytes_op": (per_op(perf.get("bytes_copied", 0)), "B"),
        "rdma.memory.referenced_bytes_op": (per_op(perf.get("bytes_referenced", 0)), "B"),
        "rdma.memory.alloc_bytes_op": (per_op(counters.get("rdma.memory.alloc_bytes", 0)), "B"),
        "rdma.memory.alloc_us_op": (span_us("rdma.memory.alloc"), "us"),
        "rdma.cm.connects_op": (per_op(calls.get("rdma.cm.connect", 0)), "count"),
        "core.rpc.calls_op": (per_op(calls.get("core.rpc.call", 0)), "count"),
        "core.resource_manager.grants_op": (
            per_op(spans.get("core.resource_manager.grant", 0)),
            "count",
        ),
        "workloads.fn_us_op": (span_us("workloads.fn"), "us"),
        "experiments.scale.drive_self_us_op": (span_us("experiments.scale.drive"), "us"),
        "experiments.scale.round_overhead_ms": (
            float(np.median(drive)) if drive else 0.0,
            "ms",
        ),
        "experiments.scale.backlog_peak": (gauge_max("backlog_peak"), "count"),
        "experiments.scale.queued_frac": (
            per_op(sum(r.gauges.get("queued", 0) for r in run.rounds)),
            "ratio",
        ),
        "analysis.streams.flush_us_op": (span_us("analysis.streams.flush"), "us"),
        "analysis.streams.finalize_ms": (
            run.self_ns.get("analysis.streams.finalize", 0.0) / rounds / 1e6,
            "ms",
        ),
        "analysis.streams.buckets": (gauge_max("buckets"), "count"),
    }
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_us_op"] = (run.attribution_us_op[layer], "us")
    metrics.update(
        {
            "host.unattributed_us_op": (run.attribution_us_op[UNATTRIBUTED], "us"),
            "host.traced_round_us_op": (run.attribution_us_op["total"], "us"),
            "host.wall_s_raw": (summary["wall_s_raw"], "s"),
            "host.ref_ms_p50": (summary["ref_ms_p50"], "ms"),
            "host.round_ms_p90": (summary["round_ms_p90"], "ms"),
            "host.rounds": (float(summary["rounds"]), "count"),
            "host.trace_overhead": (traced_ops_per_s / summary["ops_per_s"], "ratio"),
            "py.gc_passes_kop": (
                1e3 * sum(r.gc_passes for r in untraced) / max(1, untraced_ops),
                "count/kop",
            ),
            "failed_frac": (failed / max(1, attempted), "ratio"),
        }
    )
    return metrics


def write_trace(out_dir: str, workload: str, seed: int, run: TracedRun, metrics: dict) -> str:
    """Write the spans (``.npz``) and the per-layer report (``.json``); returns the latter."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"trace-{workload}")
    arrays = run.arrays
    np.savez(
        stem + ".npz",
        names=np.array(run.recorder.names),
        round_log_pos=np.array([[r.log_start, r.log_end] for r in run.rounds], dtype=np.int64),
        factors=np.array([r.factor for r in run.rounds]),
        name=arrays["name"],
        parent=arrays["parent"].astype(np.int32),
        op=arrays["op"].astype(np.int32),
        start=arrays["start"],
        end=arrays["end"],
        pos=arrays["pos"],
    )
    report = {
        "workload": workload,
        "seed": seed,
        "ops": run.ops,
        "rounds": len(run.rounds),
        "spans": int(len(run.arrays["name"])),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "attribution_us_op": run.attribution_us_op,
        "self_us_op_by_span": {
            name: ns / max(1, run.ops) / 1e3 for name, ns in sorted(run.self_ns.items())
        },
        "spans_by_name": dict(sorted(run.spans.items())),
        "generator_calls": dict(sorted(run.calls.items())),
    }
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=False)
    return stem + ".json"
