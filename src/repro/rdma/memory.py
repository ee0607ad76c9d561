"""Host memory, registration, and lkey/rkey protection.

Each simulated host owns a :class:`HostMemory`: a flat virtual address
space from which page-aligned blocks are allocated.  A block carries
either a real backing (the default -- payload bytes really move across
the fabric) or a *virtual* backing that tracks only sizes, used by
multi-hundred-megabyte bandwidth sweeps where materializing the bytes
would dominate wall-clock time without changing any simulated result.

Real blocks of at least :data:`DEMAND_ZERO_MIN_BYTES` are backed by a
private anonymous mapping instead of a ``bytearray``: the OS hands out
zero pages on first touch, so allocating an 8 MiB worker buffer costs
one system call rather than zero-filling 8 MiB, and only the pages a
run writes become resident.  Smaller blocks stay ``bytearray`` so that
headers and scratch words do not each cost a mapping.

Remote access goes through :class:`MemoryRegion` keys exactly as on
hardware: the responder looks the rkey up in its NIC table, checks
bounds and access flags, and a violation produces a remote-access-error
completion at the requester, not a Python exception.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from typing import Optional, Union

from repro import perf
from repro.rdma.constants import Access
from repro.rdma.errors import MemoryRegistrationError, OutOfMemory

#: rFaaS aligns buffers to pages for best RDMA bandwidth [Kalia et al.].
PAGE_SIZE = 4_096

BytesLike = Union[bytes, bytearray, memoryview]
Backing = Union[bytearray, mmap.mmap]

#: Real blocks at least this large get demand-zero mapped backing.  On
#: CPython 3.11 (2-vCPU x86-64 VM) ``bytearray(n)`` costs ~0.65 us/KiB
#: on fresh pages and still ~18 us at 256 KiB on a warm heap, against
#: ~5-13 us for a mapping of any size; 256 KiB is the first size at
#: which the mapping wins on either heap.
DEMAND_ZERO_MIN_BYTES = 256 * 1024


#: Virtual blocks keep this many real bytes at their start, so small
#: control structures (e.g. rFaaS's 12-byte result header) survive even
#: when the bulk payload is size-only.
SHADOW_BYTES = 256


class MemoryBlock:
    """A contiguous allocation inside a :class:`HostMemory`."""

    __slots__ = ("base", "size", "data", "owner", "shadow")

    def __init__(self, base: int, size: int, data: Optional[Backing], owner: "HostMemory") -> None:
        self.base = base
        self.size = size
        #: Real backing bytes, or None for a virtual or freed (size-only) block.
        self.data = data
        #: Real prefix of a virtual block (None for real blocks).
        self.shadow: Optional[bytearray] = (
            bytearray(min(size, SHADOW_BYTES)) if data is None else None
        )
        self.owner = owner

    @property
    def is_virtual(self) -> bool:
        return self.data is None

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int) -> bool:
        return self.base <= addr and addr + length <= self.end

    def write(self, addr: int, payload: BytesLike) -> None:
        """Copy *payload* to absolute address *addr* (must be in range).

        Virtual blocks persist only the part overlapping their shadow
        prefix; the rest is accounted but not stored.
        """
        length = len(payload)
        if not self.contains(addr, length):
            raise MemoryRegistrationError(
                f"write [{addr}, {addr + length}) outside block [{self.base}, {self.end})"
            )
        offset = addr - self.base
        if self.data is not None:
            if type(payload) is memoryview and payload.obj is self.data:
                # Self-copy within one block (e.g. loopback RDMA between
                # two windows of the same allocation): slice assignment
                # over overlapping ranges of the same backing is not
                # well-defined, so materialize the source first.
                payload = bytes(payload)
            self.data[offset : offset + length] = payload
            if perf.enabled:
                perf.counters.bytes_copied += length
        elif self.shadow is not None and offset < len(self.shadow):
            keep = min(length, len(self.shadow) - offset)
            self.shadow[offset : offset + keep] = bytes(payload[:keep])

    def read(self, addr: int, length: int) -> bytes:
        """Read *length* bytes at absolute address *addr*.

        Virtual blocks return their shadow prefix followed by zeros.
        """
        if not self.contains(addr, length):
            raise MemoryRegistrationError(
                f"read [{addr}, {addr + length}) outside block [{self.base}, {self.end})"
            )
        offset = addr - self.base
        if self.data is None:
            out = bytearray(length)
            if self.shadow is not None and offset < len(self.shadow):
                keep = min(length, len(self.shadow) - offset)
                out[:keep] = self.shadow[offset : offset + keep]
            return bytes(out)
        return bytes(self.data[offset : offset + length])

    def view(self, addr: int, length: int) -> memoryview:
        """Zero-copy read-only view of *length* bytes at *addr*.

        Only valid for real blocks (virtual blocks have no bytes to
        reference; callers fall back to :meth:`read` / shadow capture).
        The view aliases live memory: it observes later writes, which is
        exactly the verbs contract -- a posted buffer must stay stable
        until the send completes.
        """
        if self.data is None:
            raise MemoryRegistrationError("cannot take a view of a virtual block")
        if not self.contains(addr, length):
            raise MemoryRegistrationError(
                f"view [{addr}, {addr + length}) outside block [{self.base}, {self.end})"
            )
        offset = addr - self.base
        if perf.enabled:
            perf.counters.bytes_referenced += length
        return memoryview(self.data)[offset : offset + length].toreadonly()

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))

    def __repr__(self) -> str:
        kind = "virtual" if self.is_virtual else "real"
        return f"<MemoryBlock base={self.base:#x} size={self.size} {kind}>"


class HostMemory:
    """Per-host address space with a bump allocator.

    Addresses are never reused within a run (a bump pointer), which both
    keeps the allocator trivial and makes use-after-free show up as a
    protection error rather than silent corruption.  Because bases only
    ascend, live blocks are kept in a dict keyed by base (insertion
    order is address order): :meth:`free` is O(1) and :meth:`block_at`
    bisects.
    """

    def __init__(self, capacity: int = 1 << 40, base: int = 0x10_000) -> None:
        self.capacity = capacity
        self._next = base
        self._live: dict[int, MemoryBlock] = {}
        #: Ascending bases of live blocks plus not-yet-compacted freed ones.
        self._bases: list[int] = []
        self.bytes_allocated = 0

    def alloc(self, size: int, *, align: int = PAGE_SIZE, virtual: bool = False) -> MemoryBlock:
        """Allocate *size* bytes, page-aligned by default."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if align <= 0 or align & (align - 1):
            raise ValueError(f"alignment must be a positive power of two, got {align}")
        base = (self._next + align - 1) & ~(align - 1)
        if base + size - 0x10_000 > self.capacity:
            raise OutOfMemory(f"cannot allocate {size} bytes (capacity {self.capacity})")
        self._next = base + size
        data: Optional[Backing]
        if virtual:
            data = None
        elif size >= DEMAND_ZERO_MIN_BYTES:
            data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        else:
            data = bytearray(size)
        block = MemoryBlock(base, size, data, self)
        self._live[base] = block
        self._bases.append(base)
        self.bytes_allocated += size
        return block

    def free(self, block: MemoryBlock) -> None:
        """Release a block: its backing bytes go, its addresses are not recycled.

        The block object survives as a size-only block with no shadow,
        so an MR still registered over it keeps its keys and bounds: a
        late write still completes and is dropped, a late read sees
        zeros.  A mapping is unmapped once no view of it is left.
        """
        if self._live.get(block.base) is not block:
            raise MemoryRegistrationError("block does not belong to this memory")
        del self._live[block.base]
        self.bytes_allocated -= block.size
        block.data = None
        block.shadow = None
        if len(self._bases) > 2 * len(self._live) + 64:
            self._bases = list(self._live)

    def block_at(self, addr: int) -> Optional[MemoryBlock]:
        """The live block containing *addr*, if any."""
        index = bisect_right(self._bases, addr) - 1
        if index < 0:
            return None
        # Blocks never overlap, so only the nearest base at or below
        # *addr* can contain it.
        block = self._live.get(self._bases[index])
        return block if block is not None and addr < block.end else None


class MemoryRegion:
    """A registered window over a block, addressable via lkey/rkey."""

    __slots__ = ("pd", "block", "addr", "length", "access", "lkey", "rkey", "_revoked")

    def __init__(
        self,
        pd: "ProtectionDomain",
        block: MemoryBlock,
        addr: int,
        length: int,
        access: Access,
        lkey: int,
        rkey: int,
    ) -> None:
        self.pd = pd
        self.block = block
        self.addr = addr
        self.length = length
        self.access = access
        self.lkey = lkey
        self.rkey = rkey
        self._revoked = False

    @property
    def end(self) -> int:
        return self.addr + self.length

    @property
    def valid(self) -> bool:
        return not self._revoked

    def allows(self, access: Access) -> bool:
        return bool(self.access & access) and not self._revoked

    def in_bounds(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.end

    def write(self, offset: int, payload: BytesLike) -> None:
        """Local write at *offset* within the region."""
        self.block.write(self.addr + offset, payload)

    def read(self, offset: int, length: int) -> bytes:
        """Local read at *offset* within the region."""
        return self.block.read(self.addr + offset, length)

    def view(self, offset: int, length: int) -> memoryview:
        """Zero-copy read-only view at *offset* (real blocks only)."""
        return self.block.view(self.addr + offset, length)

    def deregister(self) -> None:
        self._revoked = True
        self.pd.nic._drop_mr(self)

    def __repr__(self) -> str:
        return (
            f"<MemoryRegion addr={self.addr:#x} len={self.length} "
            f"lkey={self.lkey} rkey={self.rkey} access={self.access}>"
        )


class ProtectionDomain:
    """Groups MRs and QPs; keys are only valid within their NIC's tables."""

    def __init__(self, nic: "NIC", handle: int) -> None:  # noqa: F821 - forward ref
        self.nic = nic
        self.handle = handle

    def register(
        self,
        block: MemoryBlock,
        access: Access = Access.LOCAL_WRITE,
        *,
        addr: Optional[int] = None,
        length: Optional[int] = None,
    ) -> MemoryRegion:
        """Register (a window of) *block* and return the MR with fresh keys."""
        addr = block.base if addr is None else addr
        length = block.size if length is None else length
        if length <= 0:
            raise MemoryRegistrationError("registration length must be positive")
        if not block.contains(addr, length):
            raise MemoryRegistrationError(
                f"registration [{addr:#x}, +{length}) not contained in {block!r}"
            )
        return self.nic._new_mr(self, block, addr, length, access)
