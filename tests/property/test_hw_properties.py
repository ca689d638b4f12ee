"""Property-based tests for hardware substrate invariants."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory import PAGE_SIZE, AddressSpace, MemoryError_
from repro.hw.tpt import TPT, CapabilityAuthority, NicTLB, ProtectionError
from repro.net.packet import Message, MsgKind, Reassembler, fragment


class TestAddressSpaceProperties:
    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=1, max_value=100_000),
                    min_size=1, max_size=30))
    def test_allocations_never_overlap(self, sizes):
        space = AddressSpace("p")
        buffers = [space.alloc(size) for size in sizes]
        spans = sorted((b.base, b.base + b.page_count * PAGE_SIZE)
                       for b in buffers)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        for buf, size in zip(buffers, sizes):
            assert buf.size == size
            assert buf.page_count == (size + PAGE_SIZE - 1) // PAGE_SIZE

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=50_000),
           st.data())
    def test_pages_in_range_covers_exactly_the_span(self, size, data):
        space = AddressSpace("p")
        buf = space.alloc(size)
        offset = data.draw(st.integers(min_value=0, max_value=size - 1))
        nbytes = data.draw(st.integers(min_value=1, max_value=size - offset))
        pages = buf.pages_in_range(offset, nbytes)
        first = offset // PAGE_SIZE
        last = (offset + nbytes - 1) // PAGE_SIZE
        assert pages == buf.pages[first:last + 1]


#: Buffer, page and segment operands are indices taken modulo the count.
_IDX = st.integers(min_value=0, max_value=7)

#: Operations that leave a buffer's pages unbuilt...
_BUFFER_OPS = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 3 * PAGE_SIZE + 1)),
    st.tuples(st.just("pin"), _IDX),
    st.tuples(st.just("unpin"), _IDX),
    st.tuples(st.just("register"), _IDX, st.booleans()),
    st.tuples(st.just("deregister"), _IDX),
    st.tuples(st.just("free"), _IDX),
)
#: ...and operations that ask for pages, so build them.
_PAGE_OPS = st.one_of(
    st.tuples(st.just("evict"), _IDX, _IDX),
    st.tuples(st.just("lock"), _IDX, _IDX, st.booleans()),
    st.tuples(st.just("page_in"), _IDX, _IDX),
    st.tuples(st.just("check_access"), _IDX,
              st.integers(0, 4 * PAGE_SIZE), st.integers(0, 4 * PAGE_SIZE),
              st.integers(-1, 7)),
    st.tuples(st.just("tlb_load"), _IDX, _IDX),
    st.tuples(st.just("tlb_invalidate"), _IDX, _IDX),
)
#: Weighted toward the first kind, so unbuilt buffers survive long
#: enough to be pinned, registered and freed.
_OPS = st.one_of(_BUFFER_OPS, _BUFFER_OPS, _PAGE_OPS)


class _World:
    """An address space, TPT and 3-entry NIC TLB driven by operations.

    ``touch(i)`` says whether buffer ``i`` has its pages built as soon as
    it is allocated; the others build them only when an operation asks.
    """

    def __init__(self, touch):
        self.space = AddressSpace("w")
        self.tpt = TPT()
        self.tlb = NicTLB(3)
        self.touch = touch
        self.buffers = []
        self.segments = []

    def _page(self, b, i):
        buf = self.buffers[b % len(self.buffers)]
        return buf.pages[i % buf.page_count]

    def apply(self, op):
        """Run one operation; its outcome, free of object identities."""
        name, b, *args = op
        if name != "alloc" and not self.buffers:
            return "skipped"
        buf = self.buffers[b % len(self.buffers)] if self.buffers else None
        try:
            if name == "alloc":
                buf = self.space.alloc(b)
                if self.touch(len(self.buffers)):
                    buf.pages
                self.buffers.append(buf)
                return buf.base
            if name in ("pin", "unpin"):
                return getattr(buf, name)()
            if name == "evict":
                return self._page(b, args[0]).evict()
            if name == "page_in":
                return self._page(b, args[0]).page_in()
            if name == "lock":
                self._page(b, args[0]).locked_by_host = args[1]
                return None
            if name == "register":
                self.segments.append(self.tpt.register(buf, pin=args[0]))
                return self.segments[-1].base
            if name == "deregister":
                return self.tpt.deregister(self.segments[b % len(
                    self.segments)]) if self.segments else "skipped"
            if name == "check_access":
                offset, nbytes, s = args
                token = (self.segments[s % len(self.segments)].capability
                         if s >= 0 and self.segments else None)
                return self.tpt.check_access(buf.base + offset, nbytes,
                                             token)
            if name == "tlb_load":
                evicted = self.tlb.load(self._page(b, args[0]))
                return None if evicted is None else evicted.vaddr
            if name == "tlb_invalidate":
                return self.tlb.invalidate(self._page(b, args[0]))
            assert name == "free", name
            return self.space.free(buf)
        except (MemoryError_, ProtectionError) as exc:
            # Segment ids are global, so they differ between worlds.
            return type(exc).__name__, re.sub(r"id=\d+", "", str(exc))

    def cheap_state(self):
        """State read without building any page."""
        return (len(self.space._buffers),
                sum(b.size for b in self.space._buffers.values()),
                len(self.tpt._segments), len(self.tlb))

    def full_state(self):
        """Every page's state, and whether lookups return the very Page
        objects the buffers hold (builds every page)."""
        pages = {}
        state = []
        for buf in self.buffers:
            assert buf.pages is buf.pages
            for page in buf.pages:
                pages[page.vaddr] = page
                found = buf.page_at(page.vaddr + PAGE_SIZE - 1)
                state.append((page.vaddr, page.pinned, page.pin_count,
                              page.resident, page.locked_by_host,
                              page.nic_loaded,
                              None if found is None else found is page))
        in_tlb = [(v, p is pages[v]) for v, p in self.tlb._entries.items()]
        return state, in_tlb


class TestLazyPageProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_OPS, min_size=10, max_size=50),
           st.lists(st.booleans(), min_size=1, max_size=8))
    def test_lazy_buffers_behave_like_materialized_ones(self, ops, touch):
        """Buffers whose pages are built at alloc and buffers left
        untouched give the same results, errors and fault reasons."""
        eager = _World(lambda i: True)
        mixed = _World(lambda i: touch[i % len(touch)])
        for op in ops:
            assert mixed.apply(op) == eager.apply(op), op
            assert mixed.cheap_state() == eager.cheap_state(), op
        assert mixed.full_state() == eager.full_state()


class TestCapabilityProperties:
    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=0, max_value=2**48),
           st.integers(min_value=1, max_value=2**32))
    def test_issue_verify_roundtrip(self, seg_id, base, length):
        auth = CapabilityAuthority()
        token = auth.issue(seg_id, base, length)
        assert len(token) == 16
        assert token == auth.issue(seg_id, base, length)

    @settings(max_examples=100)
    @given(st.binary(min_size=0, max_size=16))
    def test_forged_tokens_rejected(self, forged):
        space = AddressSpace("p")
        tpt = TPT(use_capabilities=True)
        buf = space.alloc(PAGE_SIZE)
        seg = tpt.register(buf, pin=False)
        genuine = seg.capability
        ok = tpt.authority.verify(seg, forged)
        assert ok == (forged == genuine)


class TestTLBProperties:
    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.integers(min_value=0, max_value=20), max_size=100))
    def test_tlb_never_exceeds_capacity_and_pins_match(self, capacity,
                                                       accesses):
        space = AddressSpace("p")
        buf = space.alloc(21 * PAGE_SIZE)
        tlb = NicTLB(capacity)
        for idx in accesses:
            page = buf.pages[idx]
            if not tlb.lookup(page):
                tlb.load(page)
            assert len(tlb) <= capacity
            loaded = {p.vaddr for p in buf.pages if p.nic_loaded}
            assert loaded == set(tlb._entries.keys())

    @settings(max_examples=60)
    @given(st.lists(st.integers(min_value=0, max_value=9),
                    min_size=1, max_size=60))
    def test_unbounded_tlb_misses_each_page_once(self, accesses):
        space = AddressSpace("p")
        buf = space.alloc(10 * PAGE_SIZE)
        tlb = NicTLB(1 << 20)
        for idx in accesses:
            page = buf.pages[idx]
            if not tlb.lookup(page):
                tlb.load(page)
        assert tlb.misses == len(set(accesses))
        assert tlb.hits == len(accesses) - len(set(accesses))


class TestFragmentationProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000),
           st.integers(min_value=1, max_value=65536),
           st.integers(min_value=0, max_value=512))
    def test_fragments_partition_the_payload(self, size, mtu, header):
        msg = Message(MsgKind.GM_SEND, "a", "b", size)
        frames = fragment(msg, mtu, header)
        assert sum(f.payload_bytes for f in frames) == size
        assert all(f.payload_bytes <= mtu for f in frames)
        assert all(f.wire_bytes == f.payload_bytes + header for f in frames)
        assert [f.index for f in frames] == list(range(len(frames)))
        assert frames[-1].index == frames[-1].count - 1
        assert all(f.count == len(frames) for f in frames)
        # Only the final fragment may be smaller than the MTU.
        for f in frames[:-1]:
            assert f.payload_bytes == mtu

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=0, max_value=200_000),
                    min_size=1, max_size=10),
           st.integers(min_value=512, max_value=16384))
    def test_interleaved_reassembly_completes_each_message_once(
            self, sizes, mtu):
        """Round-robin-interleaved fragments of many messages reassemble
        each message exactly once."""
        frames_by_msg = [
            fragment(Message(MsgKind.GM_SEND, "a", "b", size), mtu, 64)
            for size in sizes
        ]
        reasm = Reassembler()
        completed = []
        cursors = [0] * len(frames_by_msg)
        progressed = True
        while progressed:
            progressed = False
            for i, frames in enumerate(frames_by_msg):
                if cursors[i] < len(frames):
                    out = reasm.add(frames[cursors[i]])
                    cursors[i] += 1
                    progressed = True
                    if out is not None:
                        completed.append(out.msg_id)
        expected = [frames[0].message.msg_id for frames in frames_by_msg]
        assert sorted(completed) == sorted(expected)
        assert not reasm._seen
