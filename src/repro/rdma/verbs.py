"""Work requests: what gets posted to a queue pair.

A scatter-gather element names a window of a *local*, registered MR by
(mr, offset, length); remote windows are named by raw (addr, rkey) pairs
exactly as on the wire -- the responder, not the requester, validates
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Optional

from repro.rdma.constants import ATOMIC_SIZE, Opcode, WCStatus
from repro.rdma.errors import RdmaError
from repro.rdma.memory import MemoryRegion

_wr_ids = count(1)


def next_wr_id() -> int:
    return next(_wr_ids)


@dataclass(slots=True, eq=False)
class sge:
    """Scatter-gather element over a local MR.

    Mutable so pooled work requests can be retargeted in place on the
    invocation fast path (identity hash/eq, like ``ibv_sge`` structs).
    """

    mr: MemoryRegion
    offset: int = 0
    length: Optional[int] = None

    @property
    def nbytes(self) -> int:
        return self.mr.length - self.offset if self.length is None else self.length

    @property
    def addr(self) -> int:
        return self.mr.addr + self.offset

    def validate(self) -> int:
        """Check the element against its MR; returns its byte count."""
        mr = self.mr
        offset = self.offset
        length = self.length
        limit = mr.length
        nbytes = limit - offset if length is None else length
        if offset < 0 or nbytes < 0:
            raise RdmaError(f"negative offset/length in {self!r}")
        if offset + nbytes > limit:
            raise RdmaError(f"sge [{offset}, +{nbytes}) exceeds MR length {limit}")
        if mr._revoked:
            raise RdmaError("sge references a deregistered MR")
        return nbytes


@dataclass(slots=True, eq=False)
class SendWR:
    """A send-queue work request (``ibv_send_wr``)."""

    opcode: Opcode
    local: Optional[sge] = None
    remote_addr: int = 0
    rkey: int = 0
    imm_data: Optional[int] = None
    #: Request a CQE on the send CQ when the WR completes.
    signaled: bool = True
    #: Copy payload into the WQE (only if it fits max_inline_data).
    inline: bool = False
    #: Atomic operands.
    compare_add: int = 0
    swap: int = 0
    wr_id: int = field(default_factory=next_wr_id)
    #: Called as ``on_complete(wr, status)`` when the WR completes,
    #: signaled or not: the poster's own bookkeeping, which adds no CQE.
    on_complete: Optional[Callable[[SendWR, WCStatus], None]] = None

    @property
    def nbytes(self) -> int:
        if self.opcode.is_atomic:
            return ATOMIC_SIZE
        return self.local.nbytes if self.local is not None else 0

    def validate(self, max_inline: int) -> int:
        """Check the request as ``ibv_post_send`` would; returns :attr:`nbytes`."""
        opcode = self.opcode
        local = self.local
        if opcode.carries_immediate and self.imm_data is None:
            raise RdmaError(f"{opcode} requires imm_data")
        if opcode.needs_remote_key and self.remote_addr == 0:
            raise RdmaError(f"{opcode} requires remote_addr")
        if opcode.is_atomic:
            if local is None or local.nbytes < ATOMIC_SIZE:
                raise RdmaError("atomics require an 8-byte local result buffer")
            if self.remote_addr % ATOMIC_SIZE:
                raise RdmaError("atomic target must be 8-byte aligned")
            nbytes = ATOMIC_SIZE
        else:
            nbytes = 0 if local is None else local.validate()
        if self.inline:
            if opcode.is_atomic or opcode is Opcode.RDMA_READ:
                raise RdmaError(f"{opcode} cannot be inlined")
            if nbytes > max_inline:
                raise RdmaError(
                    f"inline payload of {nbytes} B exceeds max_inline_data={max_inline}"
                )
        return nbytes


@dataclass(slots=True, eq=False)
class RecvWR:
    """A receive-queue work request (``ibv_recv_wr``)."""

    local: sge
    wr_id: int = field(default_factory=next_wr_id)

    def validate(self) -> int:
        return self.local.validate()
