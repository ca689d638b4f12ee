"""Unit tests for the host memory model."""

import pytest

from repro.hw.memory import PAGE_SIZE, AddressSpace, MemoryError_
from repro.hw.tpt import TPT, NicTLB


def test_alloc_page_aligned_and_sized():
    space = AddressSpace("t")
    buf = space.alloc(10000, name="buf")
    assert buf.base % PAGE_SIZE == 0
    assert buf.size == 10000
    assert buf.page_count == 3  # ceil(10000 / 4096)


def test_alloc_rejects_nonpositive():
    space = AddressSpace("t")
    with pytest.raises(MemoryError_):
        space.alloc(0)
    with pytest.raises(MemoryError_):
        space.alloc(-5)


def test_distinct_buffers_do_not_overlap():
    space = AddressSpace("t")
    a = space.alloc(PAGE_SIZE)
    b = space.alloc(PAGE_SIZE)
    assert a.base + a.size <= b.base or b.base + b.size <= a.base


def test_capacity_limit_enforced():
    space = AddressSpace("t", total_bytes=2 * PAGE_SIZE)
    space.alloc(PAGE_SIZE)
    space.alloc(PAGE_SIZE)
    with pytest.raises(MemoryError_):
        space.alloc(1)


def test_free_returns_capacity():
    space = AddressSpace("t", total_bytes=PAGE_SIZE)
    buf = space.alloc(PAGE_SIZE)
    space.free(buf)
    space.alloc(PAGE_SIZE)  # must not raise


def test_double_free_rejected():
    space = AddressSpace("t")
    buf = space.alloc(PAGE_SIZE)
    space.free(buf)
    with pytest.raises(MemoryError_):
        space.free(buf)


def test_free_pinned_rejected():
    space = AddressSpace("t")
    buf = space.alloc(PAGE_SIZE)
    buf.pin()
    with pytest.raises(MemoryError_):
        space.free(buf)
    buf.unpin()
    space.free(buf)


def test_refused_free_leaves_every_page_mapped():
    """A free refused on the second page must not unmap the first: the
    segment is still registered and must keep translating."""
    space = AddressSpace("t")
    tpt = TPT()
    buf = space.alloc(2 * PAGE_SIZE)
    seg = tpt.register(buf, pin=False)
    NicTLB(4).load(buf.pages[1])
    with pytest.raises(MemoryError_, match=f"{buf.base + PAGE_SIZE:#x}"):
        space.free(buf)
    assert len(space._buffers) == 1
    assert buf.page_at(buf.base) is buf.pages[0]
    assert tpt.check_access(buf.base, buf.size, seg.capability) is None


def test_pin_unpin_counts():
    space = AddressSpace("t")
    buf = space.alloc(2 * PAGE_SIZE)
    buf.pin()
    buf.pin()
    assert all(p.pin_count == 2 for p in buf.pages)
    buf.unpin()
    assert all(p.pinned for p in buf.pages)
    buf.unpin()
    assert not any(p.pinned for p in buf.pages)


def test_unpin_unpinned_rejected():
    space = AddressSpace("t")
    buf = space.alloc(PAGE_SIZE)
    with pytest.raises(MemoryError_):
        buf.unpin()


def test_evict_pinned_page_rejected():
    space = AddressSpace("t")
    buf = space.alloc(PAGE_SIZE)
    buf.pin()
    with pytest.raises(MemoryError_):
        buf.pages[0].evict()


def test_evict_and_page_in():
    space = AddressSpace("t")
    buf = space.alloc(PAGE_SIZE)
    page = buf.pages[0]
    page.evict()
    assert not page.resident
    with pytest.raises(MemoryError_):
        page.pin()
    page.page_in()
    assert page.resident


def test_nic_loaded_page_counts_as_pinned():
    space = AddressSpace("t")
    buf = space.alloc(PAGE_SIZE)
    page = buf.pages[0]
    page.nic_loaded = True
    assert page.pinned
    with pytest.raises(MemoryError_):
        page.evict()


def test_page_at_lookup():
    space = AddressSpace("t")
    buf = space.alloc(3 * PAGE_SIZE)
    mid = buf.base + PAGE_SIZE + 123
    page = buf.page_at(mid)
    assert page is buf.pages[1]
    assert buf.page_at(0xDEAD0000) is None


def test_pages_in_range():
    space = AddressSpace("t")
    buf = space.alloc(4 * PAGE_SIZE)
    pages = buf.pages_in_range(PAGE_SIZE - 1, 2)
    assert pages == buf.pages[0:2]
    pages = buf.pages_in_range(0, buf.size)
    assert pages == buf.pages
    with pytest.raises(MemoryError_):
        buf.pages_in_range(0, buf.size + 1)
    with pytest.raises(MemoryError_):
        buf.pages_in_range(-1, 10)

