"""Discrete-event simulation kernel.

A small, deterministic, SimPy-flavoured event loop operating in integer
nanoseconds of *virtual* time.  Every other subsystem in this repository
(the RDMA fabric, the TCP stack, the rFaaS control plane, the mini-MPI
runtime) is built on top of this kernel, which is what lets us report
microsecond- and nanosecond-scale latencies from plain Python.

Public surface
--------------
``Environment``
    The event loop: schedules events, advances virtual time, spawns
    processes.
``Event``, ``Timeout``, ``AllOf``, ``AnyOf``
    Awaitable occurrences; processes ``yield`` them.
``Process``, ``Interrupt``
    Generator-based coroutines running inside the environment and the
    exception used to interrupt them.
``Resource``, ``Store``, ``FilterStore``, ``Container``
    Shared-resource primitives used to model cores, queues and links.
``us``, ``ms``, ``secs``, ``GiB``, ``MiB``, ``KiB``
    Unit helpers (virtual time is always ``int`` nanoseconds, sizes are
    ``int`` bytes).
"""

from repro.sim.clock import KB, KiB, MB, MiB, GB, GiB, ns_to_s, ns_to_us, ns_to_ms, secs, ms, us
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, InterruptedError_, Process
from repro.sim.core import Environment, StopSimulation
from repro.sim.resources import Container, FilterStore, Resource, Store
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "FilterStore",
    "GB",
    "GiB",
    "Interrupt",
    "InterruptedError_",
    "KB",
    "KiB",
    "MB",
    "MiB",
    "Process",
    "Resource",
    "RngStreams",
    "StopSimulation",
    "Store",
    "Timeout",
    "ms",
    "ns_to_ms",
    "ns_to_s",
    "ns_to_us",
    "secs",
    "us",
]
