"""Unit tests for the TPT, NIC TLB and capabilities."""

import pytest

import repro.hw.tpt as tpt_module
from repro.hw.memory import PAGE_SIZE, AddressSpace
from repro.hw.tpt import TPT, CapabilityAuthority, FaultReason, NicTLB, ProtectionError


@pytest.fixture
def space():
    return AddressSpace("t")


@pytest.fixture
def tpt():
    return TPT(use_capabilities=True)


class TestRegistration:
    def test_register_pins_by_default(self, space, tpt):
        buf = space.alloc(2 * PAGE_SIZE)
        seg = tpt.register(buf)
        assert seg.pinned
        assert all(p.pinned for p in buf.pages)

    def test_optimistic_register_does_not_pin(self, space, tpt):
        buf = space.alloc(2 * PAGE_SIZE)
        seg = tpt.register(buf, pin=False)
        assert not seg.pinned
        assert not any(p.pinned for p in buf.pages)

    def test_deregister_unpins(self, space, tpt):
        buf = space.alloc(PAGE_SIZE)
        seg = tpt.register(buf)
        tpt.deregister(seg)
        assert not any(p.pinned for p in buf.pages)
        assert tpt.translate(buf.base) is None

    def test_double_deregister_rejected(self, space, tpt):
        buf = space.alloc(PAGE_SIZE)
        seg = tpt.register(buf)
        tpt.deregister(seg)
        with pytest.raises(ProtectionError):
            tpt.deregister(seg)

    def test_translate_hits_every_page(self, space, tpt):
        buf = space.alloc(3 * PAGE_SIZE)
        seg = tpt.register(buf)
        for i in range(3):
            hit = tpt.translate(buf.base + i * PAGE_SIZE + 5)
            assert hit is not None
            assert hit[0] is seg
            assert hit[1] is buf.pages[i]


class TestAccessChecks:
    def _register(self, space, tpt, pin=False):
        buf = space.alloc(2 * PAGE_SIZE)
        seg = tpt.register(buf, pin=pin)
        return buf, seg

    def test_valid_access_passes(self, space, tpt):
        buf, seg = self._register(space, tpt)
        fault = tpt.check_access(buf.base, buf.size, seg.capability)
        assert fault is None

    def test_unknown_address_faults(self, space, tpt):
        fault = tpt.check_access(0xDEAD0000, 64, None)
        assert fault is FaultReason.INVALID_TRANSLATION

    def test_out_of_bounds_faults(self, space, tpt):
        buf, seg = self._register(space, tpt)
        fault = tpt.check_access(buf.base + PAGE_SIZE, buf.size,
                                 seg.capability)
        assert fault is FaultReason.OUT_OF_BOUNDS
        assert tpt.check_access(buf.base, 0, seg.capability) \
            is FaultReason.OUT_OF_BOUNDS

    def test_bad_capability_faults(self, space, tpt):
        buf, seg = self._register(space, tpt)
        fault = tpt.check_access(buf.base, 64, b"wrong-token-0000")
        assert fault is FaultReason.BAD_CAPABILITY
        fault = tpt.check_access(buf.base, 64, None)
        assert fault is FaultReason.BAD_CAPABILITY

    def test_capabilities_disabled_allows_none(self, space):
        tpt = TPT(use_capabilities=False)
        buf = space.alloc(PAGE_SIZE)
        tpt.register(buf, pin=False)
        assert tpt.check_access(buf.base, 64, None) is None

    def test_revoked_segment_faults(self, space, tpt):
        buf, seg = self._register(space, tpt)
        tpt.revoke(seg)
        fault = tpt.check_access(buf.base, 64, seg.capability)
        assert fault in (FaultReason.REVOKED, FaultReason.INVALID_TRANSLATION)

    def test_nonresident_page_faults(self, space, tpt):
        buf, seg = self._register(space, tpt)
        buf.pages[1].evict()
        assert tpt.check_access(buf.base, buf.size, seg.capability) \
            is FaultReason.NOT_RESIDENT
        # First page alone still fine
        assert tpt.check_access(buf.base, PAGE_SIZE, seg.capability) is None

    def test_host_locked_page_faults(self, space, tpt):
        buf, seg = self._register(space, tpt)
        buf.pages[0].locked_by_host = True
        assert tpt.check_access(buf.base, 64, seg.capability) \
            is FaultReason.PAGE_LOCKED


class TestCapabilityAuthority:
    def test_issue_is_deterministic(self):
        auth = CapabilityAuthority()
        assert auth.issue(1, 100, 200) == auth.issue(1, 100, 200)

    def test_issue_varies_with_inputs(self):
        auth = CapabilityAuthority()
        base = auth.issue(1, 100, 200)
        assert auth.issue(2, 100, 200) != base
        assert auth.issue(1, 101, 200) != base
        assert auth.issue(1, 100, 201) != base

    def test_different_keys_differ(self, monkeypatch):
        issued = []
        for key in (b"a", b"b"):
            monkeypatch.setattr(tpt_module, "KEY", key)
            issued.append(CapabilityAuthority().issue(1, 2, 3))
        assert issued[0] != issued[1]


class TestNicTLB:
    def test_load_and_hit(self, space):
        tlb = NicTLB(capacity=4)
        buf = space.alloc(PAGE_SIZE)
        page = buf.pages[0]
        assert not tlb.lookup(page)
        tlb.load(page)
        assert tlb.lookup(page)
        assert page.nic_loaded and page.pinned

    def test_lru_eviction_order(self, space):
        tlb = NicTLB(capacity=2)
        buf = space.alloc(3 * PAGE_SIZE)
        p0, p1, p2 = buf.pages
        tlb.load(p0)
        tlb.load(p1)
        tlb.lookup(p0)  # refresh p0; p1 becomes LRU
        evicted = tlb.load(p2)
        assert evicted is p1
        assert not p1.nic_loaded
        assert p0.nic_loaded and p2.nic_loaded

    def test_invalidate(self, space):
        tlb = NicTLB(capacity=2)
        buf = space.alloc(PAGE_SIZE)
        page = buf.pages[0]
        tlb.load(page)
        assert tlb.invalidate(page)
        assert not page.nic_loaded
        assert not tlb.invalidate(page)

    def test_hit_rate(self, space):
        tlb = NicTLB(capacity=4)
        buf = space.alloc(PAGE_SIZE)
        page = buf.pages[0]
        tlb.lookup(page)  # miss
        tlb.load(page)
        tlb.lookup(page)  # hit
        assert tlb.hit_rate == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            NicTLB(capacity=0)

    def test_reload_existing_refreshes_without_evicting(self, space):
        tlb = NicTLB(capacity=2)
        buf = space.alloc(2 * PAGE_SIZE)
        p0, p1 = buf.pages
        tlb.load(p0)
        tlb.load(p1)
        assert tlb.load(p0) is None  # refresh, no eviction
        assert len(tlb) == 2
