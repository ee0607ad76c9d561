"""Deterministic random-number streams.

Every stochastic element of the simulation (job arrivals, payload
contents, compute jitter) draws from a named stream derived from one
root seed, so that adding a new consumer never perturbs the draws seen
by existing consumers -- runs stay comparable across code changes.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, *path: str) -> int:
    """Deterministically split *root_seed* along a name path.

    Folds each path element with SHA-256, exactly as chained
    :meth:`RngStreams.spawn` calls would, so
    ``derive_seed(root, "a", "b") == RngStreams(root).spawn("a").spawn("b").root_seed``.
    This is the seed-splitting contract the parallel engine relies on:
    a worker that knows only ``(root_seed, path)`` reconstructs the same
    streams the serial run would have used, in any process, in any order.
    """
    seed = int(root_seed)
    for part in path:
        digest = hashlib.sha256(f"{seed}/{part}".encode()).digest()
        seed = int.from_bytes(digest[:8], "little")
    return seed


class RngStreams:
    """A family of independent, named ``numpy.random.Generator`` streams."""

    def __init__(self, root_seed: int = 0xC0FFEE) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for *name*, created on first use.

        The same (root_seed, name) pair always yields the same sequence.
        """
        generator = self._streams.get(name)
        if generator is None:
            digest = hashlib.sha256(f"{self.root_seed}:{name}".encode()).digest()
            seed = int.from_bytes(digest[:8], "little")
            generator = np.random.default_rng(seed)
            self._streams[name] = generator
        return generator

    def spawn(self, name: str) -> "RngStreams":
        """A child family, independent of this one."""
        return RngStreams(derive_seed(self.root_seed, name))

    def spawn_seed(self, name: str) -> int:
        """The root seed :meth:`spawn` would give the child named *name*."""
        return derive_seed(self.root_seed, name)
