"""Arrival-time generators for the open-loop scale harness.

The scale engine (``repro.experiments.scale``) needs one thing from an
arrival model: the **global sequence of absolute arrival times**, drawn
deterministically from a seeded generator, in bounded-memory chunks.
Centralizing that sequence is what makes scenario *sharding* exact: a
shard that keeps every K-th arrival of the global sequence simulates a
systematic thinning of the very process the unsharded run would have
seen, so per-shard results fold back without statistical drift.

Three shapes, all with the same long-run mean rate ``1/mean_gap_ns``:

* ``poisson`` -- exponential inter-arrival gaps.  The gap recipe
  (chunked ``Generator.exponential``, ``int64``, floor at 1 ns) is
  byte-for-byte the one the PR 4 driver used, so a 1-shard partition
  run replays the identical arrival stream.
* ``bursty`` -- a compound process: burst *epochs* arrive with
  exponential gaps of mean ``mean_gap_ns * burst_len``; each epoch
  releases ``burst_len`` invocations spaced ``burst_intra_gap_ns``
  apart (the :mod:`repro.workloads.tenants` "bursty" profile, rescaled
  from tenant mixes to the scale harness).
* ``diurnal`` -- a non-homogeneous Poisson process whose rate follows a
  piecewise-constant profile of ``multipliers`` repeating every
  ``period_ns`` (a day curve compressed to simulation scale).  Drawn by
  the time-change theorem: unit-rate exponential "operational" times
  are mapped through the inverse of the integrated rate, which for a
  piecewise-constant profile is piecewise-linear and inverts exactly
  with a vectorized ``searchsorted``.

Every generator yields ``numpy.int64`` arrays of **absolute** times
(non-decreasing, first arrival >= 1 ns) totalling exactly ``count``
entries; peak memory is one chunk regardless of ``count``.

:func:`merge_tenant_streams` lifts per-tenant streams into one global
calendar: a ``(times, tenants)`` chunk sequence, globally non-decreasing
in time, with a tenant-id column that the multi-tenant scale engine
carries through every slab.  Ties (equal arrival times across tenants)
break on the lowest tenant id via a stable ``np.lexsort``, so the
merged order is a pure function of the input streams -- the property
the batch/per-event bit-identity contract rests on.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

#: Chunk size for pre-batched draws; matches the scale driver's RNG
#: chunking so partition-mode shards replay identical stream prefixes.
ARRIVAL_CHUNK = 1 << 16

#: The dtype every generator yields (and batch admission expects):
#: absolute nanosecond deadlines as signed 64-bit ints.  Using one
#: named dtype everywhere keeps the float->int truncation step
#: identical across shapes, which the bit-identity contract between
#: batch and per-event admission depends on.
ARRIVAL_DTYPE = np.int64

#: Arrival shapes understood by :func:`arrival_times`.
SHAPES = ("poisson", "bursty", "diurnal")

#: Default diurnal profile: 24 "hours" of rate multipliers with a deep
#: night trough and an evening peak (mean-normalized internally, so the
#: long-run rate is still ``1/mean_gap_ns``).
DIURNAL_DAY = (
    0.25, 0.20, 0.20, 0.30, 0.50, 0.80,
    1.20, 1.60, 1.90, 2.00, 1.90, 1.70,
    1.50, 1.40, 1.40, 1.50, 1.60, 1.70,
    1.60, 1.40, 1.10, 0.80, 0.50, 0.35,
)


def _poisson_times(
    rng: np.random.Generator, count: int, mean_gap_ns: float, chunk: int
) -> Iterator[np.ndarray]:
    now = 0
    remaining = count
    while remaining:
        size = min(chunk, remaining)
        draws = rng.exponential(mean_gap_ns, size=size)
        # One int64 array, updated in place: gaps, then absolute times.
        times = draws.astype(ARRIVAL_DTYPE)
        np.maximum(times, 1, out=times)
        np.cumsum(times, out=times)
        times += now
        now = int(times[-1])
        remaining -= size
        yield times


def _bursty_times(
    rng: np.random.Generator,
    count: int,
    mean_gap_ns: float,
    burst_len: int,
    intra_gap_ns: int,
    chunk: int,
) -> Iterator[np.ndarray]:
    if burst_len < 1:
        raise ValueError(f"burst_len must be >= 1, got {burst_len}")
    if intra_gap_ns < 0:
        raise ValueError(f"burst_intra_gap_ns must be >= 0, got {intra_gap_ns}")
    epoch = 0
    last = 0
    remaining = count
    bursts_per_chunk = max(1, chunk // burst_len)
    offsets = np.arange(burst_len, dtype=ARRIVAL_DTYPE) * intra_gap_ns
    while remaining:
        bursts = min(bursts_per_chunk, -(-remaining // burst_len))
        draws = rng.exponential(mean_gap_ns * burst_len, size=bursts)
        gaps = np.maximum(draws.astype(ARRIVAL_DTYPE), 1)
        epochs = epoch + np.cumsum(gaps)
        epoch = int(epochs[-1])
        times = (epochs[:, None] + offsets[None, :]).reshape(-1)
        if times.size > remaining:
            times = times[:remaining]
        # An epoch gap shorter than the burst span (burst_len *
        # intra_gap_ns) makes consecutive bursts overlap; clamp against
        # the running maximum, carried across chunk boundaries, to keep
        # the stream non-decreasing.
        times[0] = max(int(times[0]), last)
        np.maximum.accumulate(times, out=times)
        last = int(times[-1])
        remaining -= times.size
        yield times


def _diurnal_times(
    rng: np.random.Generator,
    count: int,
    mean_gap_ns: float,
    period_ns: int,
    multipliers: Sequence[float],
    chunk: int,
) -> Iterator[np.ndarray]:
    profile = np.asarray(multipliers, dtype=np.float64)
    if profile.size == 0 or bool((profile <= 0).any()):
        raise ValueError("diurnal multipliers must be a non-empty positive sequence")
    if period_ns < profile.size:
        raise ValueError(f"diurnal period {period_ns} ns shorter than its profile")
    # Normalize so the long-run mean rate is exactly 1/mean_gap_ns, then
    # precompute the per-period piecewise-linear integrated rate.
    rates = profile / profile.mean()  # operational-seconds per second
    segment_ns = period_ns / profile.size
    # Operational time accumulated at the *end* of each segment.
    ops_edges = np.cumsum(rates) * segment_ns
    ops_per_period = float(ops_edges[-1])  # == period_ns by normalization
    ops_starts = ops_edges - rates * segment_ns

    ops_now = 0.0
    last = 0
    remaining = count
    while remaining:
        size = min(chunk, remaining)
        # Gaps in operational time are plain exponentials (time-change
        # theorem); the int64 floor happens after mapping back to real
        # time so sub-segment geometry is preserved.
        ops = ops_now + np.cumsum(rng.exponential(mean_gap_ns, size=size))
        ops_now = float(ops[-1])
        periods, rem = np.divmod(ops, ops_per_period)
        segment = np.minimum(
            np.searchsorted(ops_edges, rem, side="right"), rates.size - 1
        )
        within = (rem - ops_starts[segment]) / rates[segment]
        real = periods * period_ns + segment * segment_ns + within
        times = np.maximum(real.astype(ARRIVAL_DTYPE), 1)
        # Integer truncation can locally reorder by 1 ns across a
        # segment edge; restore monotonicity (exact ops times are
        # strictly increasing, so this only touches rounding ties).
        # The running maximum is carried across chunk boundaries so an
        # inversion landing exactly on a boundary is repaired too.
        times[0] = max(int(times[0]), last)
        np.maximum.accumulate(times, out=times)
        last = int(times[-1])
        remaining -= size
        yield times


def arrival_times(
    shape: str,
    rng: np.random.Generator,
    count: int,
    mean_gap_ns: float,
    *,
    burst_len: int = 64,
    burst_intra_gap_ns: int = 1,
    diurnal_period_ns: int = 0,
    diurnal_multipliers: Sequence[float] = DIURNAL_DAY,
    chunk: int = ARRIVAL_CHUNK,
) -> Iterator[np.ndarray]:
    """Chunked absolute arrival times for *shape* (see module docs).

    ``diurnal_period_ns=0`` auto-sizes the period to a quarter of the
    expected arrival span (``count * mean_gap_ns / 4``), so the default
    scenario sweeps through four full day curves whatever its scale.
    """
    if count < 1:
        raise ValueError(f"arrival stream needs at least one arrival, got {count}")
    if mean_gap_ns <= 0:
        raise ValueError(f"mean_gap_ns must be positive, got {mean_gap_ns}")
    if shape == "poisson":
        return _poisson_times(rng, count, mean_gap_ns, chunk)
    if shape == "bursty":
        return _bursty_times(rng, count, mean_gap_ns, burst_len, burst_intra_gap_ns, chunk)
    if shape == "diurnal":
        period = int(diurnal_period_ns) or max(
            len(diurnal_multipliers), int(count * mean_gap_ns) // 4
        )
        return _diurnal_times(rng, count, mean_gap_ns, period, diurnal_multipliers, chunk)
    raise ValueError(f"unknown arrival shape {shape!r} (expected one of {SHAPES})")


#: Dtype of the tenant-id column produced by :func:`merge_tenant_streams`.
TENANT_DTYPE = np.int32


def merge_tenant_streams(
    streams: Sequence[Iterator[np.ndarray]],
    chunk: int = ARRIVAL_CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Merge per-tenant arrival streams into one tagged global calendar.

    Yields ``(times, tenants)`` pairs -- ``times`` an ``int64`` array of
    absolute arrival times, globally non-decreasing across all yielded
    chunks, and ``tenants`` the parallel ``int32`` column of stream
    indices.  Equal times order by ascending tenant id (stable lexsort,
    primary key time, secondary key tenant).

    The merge is barrier-based so memory stays bounded: each round tops
    up every live tenant's buffer to ~one chunk, then emits the prefix
    of the combined buffer strictly below the *barrier* -- the smallest
    last-buffered time over tenants that still have arrivals pending.
    A live tenant produces nothing earlier than its last buffered time,
    but may produce that time again, so everything retained or still to
    come is at or after the barrier: the output is globally
    non-decreasing, and a tie is only emitted once all of its arrivals
    are buffered.  A round with nothing below the barrier reads on in
    the tenants that set it.
    """
    iters = [iter(s) for s in streams]
    if not iters:
        raise ValueError("merge_tenant_streams needs at least one stream")
    buffers: list[np.ndarray] = [np.empty(0, dtype=ARRIVAL_DTYPE) for _ in iters]
    live = [True] * len(iters)
    need = [chunk] * len(iters)
    while True:
        # Top up: every live tenant holds at least `chunk` buffered
        # arrivals (or is exhausted), so the barrier advances by at
        # least one chunk's span per round.
        for t, it in enumerate(iters):
            if not live[t]:
                continue
            parts = [buffers[t]]
            size = buffers[t].size
            while size < need[t]:
                block = next(it, None)
                if block is None:
                    live[t] = False
                    break
                parts.append(block)
                size += block.size
            if len(parts) > 1:
                buffers[t] = np.concatenate(parts)
            need[t] = chunk
        pending = [t for t in range(len(iters)) if live[t]]
        if pending:
            barrier = min(int(buffers[t][-1]) for t in pending)
            cuts = [int(np.searchsorted(buf, barrier, side="left")) for buf in buffers]
            if not any(cuts):
                for t in pending:
                    if buffers[t][-1] == barrier:
                        need[t] = buffers[t].size + 1
                continue
            emit = [buf[:cut] for buf, cut in zip(buffers, cuts)]
            buffers = [buf[cut:] for buf, cut in zip(buffers, cuts)]
        else:
            emit, buffers = buffers, [b[:0] for b in buffers]
        total = sum(part.size for part in emit)
        if total:
            times = np.concatenate([part for part in emit if part.size])
            tenants = np.concatenate(
                [
                    np.full(part.size, t, dtype=TENANT_DTYPE)
                    for t, part in enumerate(emit)
                    if part.size
                ]
            )
            # Stable sort, primary key = time, secondary = tenant id
            # (the concatenation above is already tenant-major, so the
            # tenant key only has to break exact time ties).
            order = np.lexsort((tenants, times))
            yield times[order], tenants[order]
        if not pending:
            return
