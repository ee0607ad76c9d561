"""Picklable run descriptions: ship any scenario to a worker process.

A :class:`RunSpec` names its factory by import path (``module:qualname``)
instead of holding the callable, so the spec itself is always picklable
even when the target interpreter has not imported the module yet.  The
optional explicit seed implements the determinism contract: a worker
reconstructs exactly the RNG state the serial run would have used, so
parallel execution is bit-identical to serial execution.
"""

from __future__ import annotations

import importlib
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run, addressable from any process."""

    #: Import path of the factory: ``package.module:qualname``.
    factory: str
    #: Keyword arguments for the factory (must be picklable).
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: Explicit RNG seed, injected as ``kwargs[seed_arg]`` when set.
    seed: int | None = None
    #: Name of the keyword argument that receives :attr:`seed`.
    seed_arg: str | None = None
    #: Position in the originating grid; used for ordered reassembly.
    index: int = 0
    #: Human-readable tag for progress/error reporting.
    label: str = ""

    def resolve(self) -> Callable[..., Any]:
        """Import and return the factory callable."""
        module_name, _, qualname = self.factory.partition(":")
        if not module_name or not qualname:
            raise ValueError(f"factory must be 'module:qualname', got {self.factory!r}")
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
        if not callable(target):
            raise TypeError(f"{self.factory} resolved to non-callable {target!r}")
        return target

    def call(self) -> Any:
        """Resolve the factory and run it with this spec's arguments."""
        kwargs = dict(self.kwargs)
        if self.seed_arg is not None and self.seed is not None:
            kwargs[self.seed_arg] = self.seed
        return self.resolve()(**kwargs)

    @property
    def name(self) -> str:
        return self.label or f"{self.factory}[{self.index}]"


@dataclass
class FailedPoint:
    """A grid point whose run raised, crashed, or timed out.

    Failures are *data*, not control flow: one bad point must never
    hang or abort the rest of a sweep, so the engine returns this
    structured record in the slot the result would have occupied.
    """

    index: int
    label: str
    params: dict[str, Any]
    error_type: str
    message: str
    #: Full ``traceback.format_exc()`` text from the failing process
    #: (empty for timeouts and worker crashes, where no Python frame
    #: survives to report).
    traceback: str = ""

    def __bool__(self) -> bool:  # failed points are falsy in filters
        return False

    def summary(self) -> str:
        return f"{self.label or self.index}: {self.error_type}: {self.message}"


def failure_from_exception(spec: RunSpec, exc: BaseException, tb: str | None = None) -> FailedPoint:
    """Wrap an exception raised while running *spec* as a FailedPoint."""
    return FailedPoint(
        index=spec.index,
        label=spec.name,
        params=dict(spec.kwargs),
        error_type=type(exc).__name__,
        message=str(exc),
        traceback=tb if tb is not None else traceback.format_exc(),
    )
