"""Billing (Sec. IV-C): ``C = Ca*ta + Cc*tc + Ch*th``.

The billing database is a memory region on the resource manager's node;
each account is three u64 counters that lightweight allocators bump with
RDMA **atomic fetch-and-add** -- accounting without involving the
manager's CPU, exactly as the paper describes.

Counter layout per account (8 bytes each):

====  ==========================  =====================================
slot  meaning                     unit stored
====  ==========================  =====================================
0     allocation ``ta * memory``  byte-seconds (scaled by the executor)
1     active computation ``tc``   nanoseconds
2     hot polling ``th``          nanoseconds
====  ==========================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.rdma.constants import Access
from repro.sim.clock import GiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import NIC
    from repro.rdma.memory import MemoryRegion

SLOT_ALLOCATION = 0
SLOT_COMPUTE = 1
SLOT_HOTPOLL = 2
SLOTS_PER_ACCOUNT = 3
ACCOUNT_BYTES = 8 * SLOTS_PER_ACCOUNT

#: Executors bump the counters with remote atomics; the manager reads them.
_ACCOUNT_ACCESS = Access.LOCAL_WRITE | Access.REMOTE_ATOMIC | Access.REMOTE_READ


@dataclass(frozen=True)
class BillingRates:
    """Prices per unit.  Hot polling is priced like computation but at
    a premium-adjustable rate; allocation is cheap (memory parking)."""

    #: USD per GiB-second of allocated (reserved) memory.
    allocation_per_gib_s: float = 1e-5
    #: USD per second of active computation.
    compute_per_s: float = 1e-3
    #: USD per second of hot polling (the premium for sub-us latency).
    hotpoll_per_s: float = 1e-3


@dataclass
class BillingAccount:
    """A read-out of one account's counters."""

    tenant: str
    allocation_byte_seconds: int
    compute_ns: int
    hotpoll_ns: int

    @property
    def allocation_gib_s(self) -> float:
        return self.allocation_byte_seconds / GiB

    @property
    def compute_s(self) -> float:
        return self.compute_ns / 1e9

    @property
    def hotpoll_s(self) -> float:
        return self.hotpoll_ns / 1e9

    def cost(self, rates: BillingRates) -> float:
        """The paper's ``C = Ca*ta + Cc*tc + Ch*th``."""
        return (
            rates.allocation_per_gib_s * self.allocation_gib_s
            + rates.compute_per_s * self.compute_s
            + rates.hotpoll_per_s * self.hotpoll_s
        )


class BillingDatabase:
    """The manager-side global database of accounts."""

    def __init__(self, nic: "NIC", capacity_accounts: int = 1024) -> None:
        self.nic = nic
        pd = nic.create_pd()
        self._block = nic.alloc(capacity_accounts * ACCOUNT_BYTES)
        self.mr: "MemoryRegion" = pd.register(self._block, _ACCOUNT_ACCESS)
        self.capacity = capacity_accounts
        self._accounts: dict[str, int] = {}  # tenant -> account index

    def open_account(self, tenant: str) -> tuple[int, int]:
        """Returns (addr, rkey) of the tenant's counters (idempotent)."""
        index = self._accounts.get(tenant)
        if index is None:
            if len(self._accounts) >= self.capacity:
                raise RuntimeError("billing database full")
            index = len(self._accounts)
            self._accounts[tenant] = index
        return self.mr.addr + index * ACCOUNT_BYTES, self.mr.rkey

    def read_account(self, tenant: str) -> BillingAccount:
        """Manager-local read of a tenant's counters."""
        base, _ = self.open_account(tenant)
        return BillingAccount(
            tenant=tenant,
            allocation_byte_seconds=self._block.read_u64(base + 8 * SLOT_ALLOCATION),
            compute_ns=self._block.read_u64(base + 8 * SLOT_COMPUTE),
            hotpoll_ns=self._block.read_u64(base + 8 * SLOT_HOTPOLL),
        )

    def tenants(self) -> list[str]:
        return sorted(self._accounts)
