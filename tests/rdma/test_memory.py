"""Tests for host memory, blocks, registration and keys."""

import mmap
import os

import pytest

from repro.rdma import Access, HostMemory, MemoryRegistrationError
from repro.rdma.errors import OutOfMemory
from repro.rdma.memory import DEMAND_ZERO_MIN_BYTES, PAGE_SIZE


def test_alloc_is_page_aligned():
    mem = HostMemory()
    block = mem.alloc(100)
    assert block.base % PAGE_SIZE == 0
    assert block.size == 100


def test_alloc_custom_alignment():
    mem = HostMemory()
    block = mem.alloc(8, align=64)
    assert block.base % 64 == 0


def test_alloc_rejects_bad_sizes():
    mem = HostMemory()
    with pytest.raises(ValueError):
        mem.alloc(0)
    with pytest.raises(ValueError):
        mem.alloc(-4)
    with pytest.raises(ValueError):
        mem.alloc(16, align=3)


def test_alloc_addresses_do_not_overlap():
    mem = HostMemory()
    blocks = [mem.alloc(1000) for _ in range(10)]
    spans = sorted((b.base, b.end) for b in blocks)
    for (_, prev_end), (next_base, _) in zip(spans, spans[1:]):
        assert next_base >= prev_end


def test_out_of_memory():
    mem = HostMemory(capacity=10_000)
    with pytest.raises(OutOfMemory):
        mem.alloc(20_000)


def test_block_write_read_roundtrip():
    mem = HostMemory()
    block = mem.alloc(64)
    block.write(block.base + 8, b"hello")
    assert block.read(block.base + 8, 5) == b"hello"
    assert block.read(block.base, 8) == bytes(8)


def test_block_bounds_enforced():
    mem = HostMemory()
    block = mem.alloc(16)
    with pytest.raises(MemoryRegistrationError):
        block.write(block.base + 12, b"too-long")
    with pytest.raises(MemoryRegistrationError):
        block.read(block.base - 1, 4)


def test_block_u64_helpers():
    mem = HostMemory()
    block = mem.alloc(16)
    block.write_u64(block.base, 0xDEADBEEF)
    assert block.read_u64(block.base) == 0xDEADBEEF
    # Wraparound at 2^64.
    block.write_u64(block.base, 2**64 + 5)
    assert block.read_u64(block.base) == 5


def test_virtual_block_shadow_prefix():
    """Virtual blocks persist only their first SHADOW_BYTES (control
    headers survive; bulk payload is size-only)."""
    from repro.rdma.memory import SHADOW_BYTES

    mem = HostMemory()
    block = mem.alloc(1 << 30, virtual=True)
    assert block.is_virtual
    block.write(block.base, b"header")
    assert block.read(block.base, 6) == b"header"
    # Past the shadow: accepted but not stored.
    block.write(block.base + SHADOW_BYTES, b"bulk")
    assert block.read(block.base + SHADOW_BYTES, 4) == bytes(4)
    # A write straddling the boundary keeps only the shadow part.
    block.write(block.base + SHADOW_BYTES - 2, b"abcd")
    assert block.read(block.base + SHADOW_BYTES - 2, 2) == b"ab"
    assert block.read(block.base + SHADOW_BYTES, 2) == bytes(2)


def test_free_and_block_at():
    mem = HostMemory()
    block = mem.alloc(128)
    assert mem.block_at(block.base + 5) is block
    mem.free(block)
    assert mem.block_at(block.base) is None
    with pytest.raises(MemoryRegistrationError):
        mem.free(block)


def test_bytes_allocated_accounting():
    mem = HostMemory()
    a = mem.alloc(100)
    b = mem.alloc(200)
    assert mem.bytes_allocated == 300
    mem.free(a)
    assert mem.bytes_allocated == 200
    mem.free(b)
    assert mem.bytes_allocated == 0


def test_registration_window_and_keys(hosts):
    nic = hosts.nic_a
    pd = nic.create_pd()
    block = nic.alloc(4096)
    mr_full = pd.register(block, Access.rw())
    mr_window = pd.register(block, Access.REMOTE_READ, addr=block.base + 1024, length=512)
    assert mr_full.lkey != mr_window.lkey
    assert mr_full.rkey != mr_window.rkey
    assert mr_window.in_bounds(block.base + 1024, 512)
    assert not mr_window.in_bounds(block.base + 1024, 513)
    assert mr_window.allows(Access.REMOTE_READ)
    assert not mr_window.allows(Access.REMOTE_WRITE)


def test_registration_out_of_block_rejected(hosts):
    nic = hosts.nic_a
    pd = nic.create_pd()
    block = nic.alloc(100)
    with pytest.raises(MemoryRegistrationError):
        pd.register(block, addr=block.base + 50, length=100)
    with pytest.raises(MemoryRegistrationError):
        pd.register(block, length=0)


def test_deregister_invalidates_rkey(hosts):
    nic = hosts.nic_a
    mr = hosts.mr_a
    assert nic.lookup_rkey(mr.rkey) is mr
    mr.deregister()
    assert nic.lookup_rkey(mr.rkey) is None
    assert not mr.valid


def _flag_combinations():
    flags = [Access.LOCAL_WRITE, Access.REMOTE_WRITE, Access.REMOTE_READ, Access.REMOTE_ATOMIC]
    combos = []
    for bits in range(1 << len(flags)):
        combo = Access.NONE
        for i, flag in enumerate(flags):
            if bits >> i & 1:
                combo |= flag
        combos.append(combo)
    return combos


def test_mr_checks_match_access_flag_semantics(hosts):
    """``allows`` is ``Access`` flag intersection while registered and
    False once deregistered; ``in_bounds`` is the registered window,
    both times.  Checked for every registered/needed flag combination."""
    nic = hosts.nic_a
    pd = nic.create_pd()
    block = nic.alloc(4096)
    combos = _flag_combinations()
    assert len(set(combos)) == 16
    probes = [
        (addr, length)
        for addr in (block.base + 1023, block.base + 1024, block.base + 1300, block.base + 1535)
        for length in (0, 1, 8, 211, 212, 512, 513)
    ]
    for registered in combos:
        mr = pd.register(block, registered, addr=block.base + 1024, length=512)
        assert mr.end == mr.addr + mr.length
        for deregistered in (False, True):
            if deregistered:
                mr.deregister()
            for needed in combos:
                expected = bool(registered & needed) and not deregistered
                assert mr.allows(needed) is expected, (registered, needed, deregistered)
            for addr, length in probes:
                expected = mr.addr <= addr and addr + length <= mr.addr + mr.length
                assert mr.in_bounds(addr, length) is expected, (addr, length)
        assert mr.access is registered


def test_mr_local_io(hosts):
    mr = hosts.mr_a
    mr.write(10, b"abc")
    assert mr.read(10, 3) == b"abc"


# -- demand-zero backing and O(1) bookkeeping ----------------------------------

EDGE_SIZES = (
    64,
    DEMAND_ZERO_MIN_BYTES - 1,
    DEMAND_ZERO_MIN_BYTES,
    DEMAND_ZERO_MIN_BYTES + 1,
    3 * DEMAND_ZERO_MIN_BYTES + 17,
)


def _resident_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def test_backing_follows_the_threshold():
    mem = HostMemory()
    assert type(mem.alloc(DEMAND_ZERO_MIN_BYTES - 1).data) is bytearray
    assert type(mem.alloc(DEMAND_ZERO_MIN_BYTES).data) is mmap.mmap
    assert mem.alloc(DEMAND_ZERO_MIN_BYTES, virtual=True).is_virtual


def test_demand_zero_block_reads_zeros_before_first_write():
    mem = HostMemory()
    block = mem.alloc(4 * DEMAND_ZERO_MIN_BYTES + 5)
    for offset in (0, 1, PAGE_SIZE - 1, block.size // 2, block.size - 8):
        assert block.read(block.base + offset, 8) == bytes(8)
    assert block.read(block.base + block.size - 1, 1) == b"\0"
    assert bytes(block.view(block.base, 16)) == bytes(16)


@pytest.mark.parametrize("size", EDGE_SIZES)
def test_write_read_view_roundtrip_at_block_edges(size):
    mem = HostMemory()
    block = mem.alloc(size)
    first, last = block.base, block.end - 1
    block.write(first, b"\x11")
    block.write(last, b"\x22")
    assert block.read(first, 1) == b"\x11"
    assert block.read(last, 1) == b"\x22"
    assert bytes(block.view(first, 1)) == b"\x11"
    assert bytes(block.view(last, 1)) == b"\x22"
    # A view aliases live memory, on either backing.
    view = block.view(first, 4)
    block.write(first, b"abcd")
    assert bytes(view) == b"abcd"
    with pytest.raises(MemoryRegistrationError):
        block.write(last, b"xy")
    with pytest.raises(MemoryRegistrationError):
        block.view(last, 2)


@pytest.mark.parametrize("size", [256, DEMAND_ZERO_MIN_BYTES])
def test_overlapping_self_copy(size):
    """Copying a window of a block onto an overlapping window of itself
    (loopback RDMA) behaves like memmove on both backings."""
    mem = HostMemory()
    block = mem.alloc(size)
    block.write(block.base, b"0123456789")
    block.write(block.base + 3, block.view(block.base, 8))
    assert block.read(block.base, 11) == b"01201234567"
    block.write(block.base, block.view(block.base + 2, 6))
    assert block.read(block.base, 8) == b"20123434"


def test_large_real_block_is_not_resident():
    before = _resident_bytes()
    block = HostMemory().alloc(256 * 1024 * 1024)
    assert block.read(block.base + block.size // 2, 4) == bytes(4)
    assert _resident_bytes() - before < 1024 * 1024


def test_free_leaves_a_size_only_block():
    mem = HostMemory()
    block = mem.alloc(DEMAND_ZERO_MIN_BYTES)
    block.write(block.base, b"payload")
    mem.free(block)
    assert block.is_virtual and block.shadow is None
    # Late accesses stay in bounds and are harmless: writes are dropped,
    # reads see zeros.
    block.write(block.base, b"late")
    assert block.read(block.base, 4) == bytes(4)
    with pytest.raises(MemoryRegistrationError):
        block.write(block.end, b"x")


def test_free_rejects_a_foreign_block_with_a_live_base():
    mem, other = HostMemory(), HostMemory()
    mine, foreign = mem.alloc(128), other.alloc(128)
    assert mine.base == foreign.base
    with pytest.raises(MemoryRegistrationError):
        mem.free(foreign)
    assert mem.block_at(mine.base) is mine
    assert mem.bytes_allocated == 128


def test_block_at_matches_a_linear_scan_through_frees():
    mem = HostMemory()
    blocks = [mem.alloc(100 + 37 * i, align=64) for i in range(300)]
    live = list(blocks)
    probes = [b.base for b in blocks] + [b.end - 1 for b in blocks] + [b.end for b in blocks]
    probes += [blocks[0].base - 1, blocks[-1].end + PAGE_SIZE]
    for step in (3, 2, 1):
        for block in live[::step]:
            mem.free(block)
        live = [b for b in live if mem.block_at(b.base) is b]
        for addr in probes:
            expected = next((b for b in live if b.base <= addr < b.end), None)
            assert mem.block_at(addr) is expected
        assert mem.bytes_allocated == sum(b.size for b in live)
    assert not live and mem.bytes_allocated == 0
