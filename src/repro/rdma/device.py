"""The NIC: the per-host root object of the verbs API.

Owns the host's memory, the key tables, and the factories for PDs, CQs
and QPs.  One NIC per fabric attachment (the paper's testbed has one
Mellanox MT27800 port per node).
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Optional

from repro.rdma.completion import CompletionQueue
from repro.rdma.constants import Access
from repro.rdma.memory import HostMemory, MemoryBlock, MemoryRegion, ProtectionDomain
from repro.rdma.queue_pair import QueuePair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.fabric import Attachment, Fabric


class NIC:
    """An RDMA device attached to the fabric under a unique host name."""

    def __init__(self, fabric: "Fabric", name: str, attachment: "Attachment") -> None:
        self.fabric = fabric
        self.env = fabric.env
        self.model = fabric.model
        self.name = name
        self.attachment = attachment
        self.memory = HostMemory()
        self._pd_handles = count(1)
        self._qp_numbers = count(1)
        self._key_source = count(1)
        self._mrs_by_rkey: dict[int, MemoryRegion] = {}
        self._cq_count = count(1)
        #: Connection manager is attached lazily by repro.rdma.cm.
        self.cm = None

    # -- verbs factories -------------------------------------------------

    def create_pd(self) -> ProtectionDomain:
        return ProtectionDomain(self, next(self._pd_handles))

    def create_cq(self, depth: int = 4_096, name: Optional[str] = None) -> CompletionQueue:
        cq = CompletionQueue(self.env, depth, name or f"{self.name}.cq{next(self._cq_count)}")
        cq.nic = self
        return cq

    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: Optional[CompletionQueue] = None,
        **kwargs,
    ) -> QueuePair:
        # Not `recv_cq or send_cq`: CQs define __len__, so an empty CQ is falsy.
        return QueuePair(
            self,
            next(self._qp_numbers),
            pd,
            send_cq,
            send_cq if recv_cq is None else recv_cq,
            **kwargs,
        )

    # -- memory -----------------------------------------------------------

    def alloc(self, size: int, *, virtual: bool = False) -> MemoryBlock:
        """Allocate page-aligned host memory on this node."""
        return self.memory.alloc(size, virtual=virtual)

    def register(self, block: MemoryBlock, access: Access = Access.LOCAL_WRITE, pd: Optional[ProtectionDomain] = None) -> MemoryRegion:
        """Convenience: register *block* in a (new) protection domain."""
        return (pd or self.create_pd()).register(block, access)

    def _new_mr(
        self,
        pd: ProtectionDomain,
        block: MemoryBlock,
        addr: int,
        length: int,
        access: Access,
    ) -> MemoryRegion:
        lkey = next(self._key_source)
        rkey = next(self._key_source)
        mr = MemoryRegion(pd, block, addr, length, access, lkey, rkey)
        self._mrs_by_rkey[rkey] = mr
        return mr

    def _drop_mr(self, mr: MemoryRegion) -> None:
        self._mrs_by_rkey.pop(mr.rkey, None)

    def lookup_rkey(self, rkey: int) -> Optional[MemoryRegion]:
        """Responder-side rkey validation (None = unknown key)."""
        mr = self._mrs_by_rkey.get(rkey)
        if mr is not None and mr._revoked:
            return None
        return mr

    def __repr__(self) -> str:
        return f"<NIC {self.name}>"
