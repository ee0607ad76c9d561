"""Enumerations mirroring the ibverbs constants rFaaS relies on."""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """Send work-request opcodes (``ibv_wr_opcode``).

    The flags below are plain member attributes, set once after the
    class body: the data path reads them several times per work
    request.
    """

    #: Does the responder consume a posted receive for this opcode?
    consumes_recv_wr: bool
    carries_immediate: bool
    needs_remote_key: bool
    is_atomic: bool
    #: Does the responder send payload back (READ result, atomic old value)?
    has_response_data: bool

    SEND = "send"
    SEND_WITH_IMM = "send_with_imm"
    RDMA_WRITE = "rdma_write"
    RDMA_WRITE_WITH_IMM = "rdma_write_with_imm"
    RDMA_READ = "rdma_read"
    ATOMIC_FETCH_ADD = "atomic_fetch_add"
    ATOMIC_CMP_SWP = "atomic_cmp_swp"


for _opcode in Opcode:
    _opcode.consumes_recv_wr = _opcode in (Opcode.SEND, Opcode.SEND_WITH_IMM, Opcode.RDMA_WRITE_WITH_IMM)
    _opcode.carries_immediate = _opcode in (Opcode.SEND_WITH_IMM, Opcode.RDMA_WRITE_WITH_IMM)
    _opcode.needs_remote_key = _opcode not in (Opcode.SEND, Opcode.SEND_WITH_IMM)
    _opcode.is_atomic = _opcode in (Opcode.ATOMIC_FETCH_ADD, Opcode.ATOMIC_CMP_SWP)
    _opcode.has_response_data = _opcode is Opcode.RDMA_READ or _opcode.is_atomic
del _opcode


class WCOpcode(enum.Enum):
    """Completion opcodes (``ibv_wc_opcode``)."""

    SEND = "send"
    RDMA_WRITE = "rdma_write"
    RDMA_READ = "rdma_read"
    FETCH_ADD = "fetch_add"
    COMP_SWAP = "comp_swap"
    RECV = "recv"
    RECV_RDMA_WITH_IMM = "recv_rdma_with_imm"


class WCStatus(enum.Enum):
    """Completion status (``ibv_wc_status``)."""

    SUCCESS = "success"
    LOC_LEN_ERR = "local_length_error"
    LOC_PROT_ERR = "local_protection_error"
    REM_ACCESS_ERR = "remote_access_error"
    REM_INV_REQ_ERR = "remote_invalid_request"
    RNR_RETRY_EXC_ERR = "rnr_retry_exceeded"
    WR_FLUSH_ERR = "work_request_flushed"
    RETRY_EXC_ERR = "transport_retry_exceeded"


class QPState(enum.Enum):
    """Queue-pair state machine (``ibv_qp_state``)."""

    RESET = "reset"
    INIT = "init"
    RTR = "ready_to_receive"
    RTS = "ready_to_send"
    ERR = "error"


class Access(enum.Flag):
    """Memory-region access flags (``ibv_access_flags``)."""

    NONE = 0
    LOCAL_WRITE = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_ATOMIC = enum.auto()

    @classmethod
    def rw(cls) -> "Access":
        return cls.LOCAL_WRITE | cls.REMOTE_WRITE | cls.REMOTE_READ

    @classmethod
    def all(cls) -> "Access":
        return cls.LOCAL_WRITE | cls.REMOTE_WRITE | cls.REMOTE_READ | cls.REMOTE_ATOMIC


#: Atomic operations act on exactly 8 bytes, 8-byte aligned.
ATOMIC_SIZE = 8

#: Default MTU-like cap on a single work request payload (2 GiB, i.e. no
#: practical cap -- RC messages may span many MTUs).
MAX_MESSAGE_SIZE = 1 << 31
