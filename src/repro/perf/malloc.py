"""Pin glibc's malloc thresholds for the chunked numpy engines.

glibc serves a request above the *mmap threshold* with its own
``mmap`` and returns heap-top memory above the *trim threshold* to the
kernel.  Both thresholds move at run time: freeing an mmapped block
raises the mmap threshold to that block's size and the trim threshold
to twice that.  The scale engines allocate a few MiB of numpy
temporaries per 65,536-arrival chunk, so the heap top grows, ``free()``
trims it back and the next chunk faults the same pages in again --
about 2,450 minor faults (~10 MiB) per 130k-invocation ``openloop``
round.  Setting either threshold switches the dynamic rule off; this
sets both, to glibc's own ceiling for the dynamic mmap threshold on
64-bit (32 MiB) and twice that for the trim threshold.

The setting is process-wide and one-way, so it is taken where an
engine run starts, not at import: processes that never run an engine
keep glibc's defaults.  Where ``mallopt`` is missing (macOS, musl) the
helper does nothing.
"""

from __future__ import annotations

import ctypes

#: ``mallopt`` parameter numbers from glibc's ``malloc.h``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit: the highest value its
#: dynamic rule would reach, and the highest ``mallopt`` accepts.
MMAP_THRESHOLD = 32 << 20
#: The dynamic rule keeps the trim threshold at twice the mmap threshold.
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

_pinned = False


def _libc():
    """The process's C library, or ``None`` where ctypes cannot open it."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):  # no process-wide symbol table (Windows)
        return None


def pin_thresholds() -> bool:
    """Pin both thresholds once per process; True if they are pinned."""
    global _pinned
    if _pinned:
        return True
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success and 0 on error.
    _pinned = bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
    return _pinned
