"""rFaaS error hierarchy."""

from __future__ import annotations


class RFaaSError(Exception):
    """Base class for platform errors."""


class AllocationError(RFaaSError):
    """No lease could be granted (no capacity, unknown executor, ...)."""


class LeaseExpired(RFaaSError):
    """The lease backing an operation has expired or was terminated."""


class InvocationRejected(RFaaSError):
    """The executor rejected an invocation (resource exhaustion).

    Clients handle this by redirecting to another executor; it only
    escapes to the user when every executor rejected.
    """


class InvocationTimeout(RFaaSError):
    """A future's wait_for deadline elapsed before the result arrived.

    The remote execution is not cancelled (an RDMA write cannot be
    recalled); the eventual result is discarded client-side.
    """
