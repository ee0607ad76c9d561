"""Allocation leases (Sec. III-B).

A lease is the paper's replacement for per-invocation central
scheduling: the resource manager grants a time-limited right to a slice
of one spot executor (cores, memory), and from then on the client talks
to the executor directly.  The lease carries everything the client
needs -- the executor's address and the billing slot for RDMA
fetch-and-add accounting.

Authentication (Sec. III-E): "Leases are time-limited and include user
authentication."  The manager signs each lease with a keyed MAC over
(lease id, client, resources); executors share the cluster secret and
refuse allocations whose token does not verify, so a client cannot
forge or inflate a lease.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
from dataclasses import dataclass
from itertools import count
from typing import Optional

#: Fallback id source for ad-hoc :class:`Lease` constructions (tests,
#: interactive use) only.  Platform paths never draw from it: the
#: resource manager allocates ids from its own per-instance counter
#: (``ResourceManager._lease_ids``), because a process-global stream
#: leaks across runs -- back-to-back simulations would see different
#: ids, a determinism/fingerprint hazard (event ids avoid it the same
#: way: each ``Environment`` owns its ``_eid`` counter).
_fallback_lease_ids = count(1)


def sign_lease(
    secret: bytes, lease_id: int, client: str, cores: int, memory_bytes: int
) -> str:
    """The lease authentication token (keyed MAC, hex)."""
    message = f"{lease_id}|{client}|{cores}|{memory_bytes}".encode()
    return hmac.new(secret, message, hashlib.sha256).hexdigest()


def verify_lease_token(
    secret: bytes, token: str, lease_id: int, client: str, cores: int, memory_bytes: int
) -> bool:
    expected = sign_lease(secret, lease_id, client, cores, memory_bytes)
    return hmac.compare_digest(expected, token or "")


class LeaseState(enum.Enum):
    ACTIVE = "active"
    RELEASED = "released"  # client deallocated before expiry
    EXPIRED = "expired"  # timeout reached
    TERMINATED = "terminated"  # manager reclaimed (executor died / drain)


@dataclass
class Lease:
    """A granted allocation on one spot executor."""

    client: str
    executor_host: str
    executor_port: int
    cores: int
    memory_bytes: int
    issued_ns: int
    timeout_ns: int
    #: Billing slot in the manager's database (addr of 3 u64 counters).
    billing_addr: int = 0
    billing_rkey: int = 0
    manager_host: str = ""
    #: Assigned by the granting manager (deterministic per manager);
    #: ``None`` falls back to a process-global stream for ad-hoc
    #: constructions outside any manager.
    lease_id: Optional[int] = None
    state: LeaseState = LeaseState.ACTIVE

    def __post_init__(self) -> None:
        if self.lease_id is None:
            self.lease_id = next(_fallback_lease_ids)

    @property
    def expiry_ns(self) -> int:
        return self.issued_ns + self.timeout_ns

    def is_active(self, now_ns: int) -> bool:
        return self.state is LeaseState.ACTIVE and now_ns < self.expiry_ns

    def remaining_ns(self, now_ns: int) -> int:
        return max(0, self.expiry_ns - now_ns)

    def renew(self, now_ns: int, timeout_ns: Optional[int] = None) -> None:
        """Restart the lease clock from *now_ns* (keeps the old timeout
        unless a new one is given).  Only active leases renew."""
        if self.state is not LeaseState.ACTIVE:
            raise ValueError(f"cannot renew a lease in state {self.state}")
        self.issued_ns = now_ns
        if timeout_ns is not None:
            self.timeout_ns = timeout_ns

    def release(self) -> None:
        if self.state is LeaseState.ACTIVE:
            self.state = LeaseState.RELEASED

    def expire(self) -> None:
        if self.state is LeaseState.ACTIVE:
            self.state = LeaseState.EXPIRED

    def terminate(self) -> None:
        if self.state is LeaseState.ACTIVE:
            self.state = LeaseState.TERMINATED


@dataclass
class LeaseRequest:
    """What a client asks the resource manager for (Sec. III-C, cold)."""

    client: str
    cores: int
    memory_bytes: int
    timeout_ns: Optional[int] = None


@dataclass
class LeaseGrant:
    """Manager -> client response."""

    lease: Optional[Lease]
    error: Optional[str] = None
