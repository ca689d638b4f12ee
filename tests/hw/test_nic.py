"""Integration tests for the NIC: GM messaging, RDMA, ORDMA faults."""

import random

import pytest

from repro.faults import NicFaults
from repro.hw import Host, NotifyMode, RemoteAccessFault
from repro.hw.tpt import FaultReason
from repro.net import MsgKind, Switch
from repro.params import KB, default_params
from repro.sim import Simulator, Tracer


@pytest.fixture
def rig():
    sim = Simulator()
    params = default_params()
    switch = Switch(sim, params.net)
    a = Host(sim, params, switch, "hostA")
    b = Host(sim, params, switch, "hostB")
    return sim, params, a, b


class TestGMMessaging:
    def test_send_lands_in_posted_buffer(self, rig):
        sim, params, a, b = rig
        cq = b.nic.open_port(7, mode=NotifyMode.POLL)
        rbuf = b.mem.alloc(8192, name="recv")
        b.nic.post_receive(7, rbuf)

        def sender():
            yield from a.nic.gm_send("hostB", 7, 4096, data="payload")

        def receiver():
            comp = yield from cq.get()
            return comp.data, rbuf.data

        sim.process(sender())
        proc = sim.process(receiver())
        sim.run()
        assert proc.value == ("payload", "payload")

    def test_one_byte_roundtrip_near_23us(self, rig):
        """Table 2 anchor: GM 1-byte RTT is ~23 us with polling."""
        sim, params, a, b = rig
        cq_a = a.nic.open_port(1, mode=NotifyMode.POLL)
        cq_b = b.nic.open_port(1, mode=NotifyMode.POLL)

        def pong():
            buf = b.mem.alloc(64)
            b.nic.post_receive(1, buf)
            yield from cq_b.get()
            yield from b.nic.gm_send("hostA", 1, 1)

        def ping():
            buf = a.mem.alloc(64)
            a.nic.post_receive(1, buf)
            start = sim.now
            yield from a.nic.gm_send("hostB", 1, 1)
            yield from cq_a.get()
            return sim.now - start

        sim.process(pong())
        proc = sim.process(ping())
        sim.run()
        assert 15.0 < proc.value < 32.0

    def test_no_posted_receive_drops(self, rig):
        sim, params, a, b = rig
        b.nic.open_port(3, mode=NotifyMode.POLL)

        def sender():
            yield from a.nic.gm_send("hostB", 3, 128, data="dropped")

        sim.process(sender())
        sim.run()
        assert b.nic.stats.get("gm_recv_drop") == 1

    def test_unopened_port_is_error(self, rig):
        sim, params, a, b = rig

        def sender():
            yield from a.nic.gm_send("hostB", 99, 128)

        sim.process(sender())
        with pytest.raises(Exception):
            sim.run()

    def test_multi_fragment_message_reassembles(self, rig):
        sim, params, a, b = rig
        cq = b.nic.open_port(5, mode=NotifyMode.POLL)
        rbuf = b.mem.alloc(64 * 1024)
        b.nic.post_receive(5, rbuf)

        def sender():
            yield from a.nic.gm_send("hostB", 5, 64 * 1024, data="big")

        def receiver():
            comp = yield from cq.get()
            return comp.message.size

        sim.process(sender())
        proc = sim.process(receiver())
        sim.run()
        assert proc.value == 64 * 1024
        # 64 KB fragments at the 4 KB GM MTU
        assert b.nic.stats.get("gm_recv") == 1

    def test_blocking_mode_charges_interrupt_and_wakeup(self, rig):
        sim, params, a, b = rig
        cq = b.nic.open_port(2, mode=NotifyMode.BLOCK)
        rbuf = b.mem.alloc(4096)
        b.nic.post_receive(2, rbuf)

        def sender():
            yield from a.nic.gm_send("hostB", 2, 64)

        def receiver():
            yield from cq.get()
            return b.cpu.busy.by_category

        sim.process(sender())
        proc = sim.process(receiver())
        sim.run()
        categories = proc.value
        assert categories.get("interrupt", 0) > 0
        assert categories.get("sched", 0) > 0


class TestRDMA:
    def test_put_moves_data(self, rig):
        sim, params, a, b = rig
        target = b.mem.alloc(4096, name="target")
        seg = b.nic.tpt.register(target)

        def putter():
            yield from a.nic.rdma_put("hostB", seg.base, 4096, data="written")
            return target.data

        assert sim.run_process(putter()) == "written"

    def test_get_fetches_data(self, rig):
        sim, params, a, b = rig
        source = b.mem.alloc(4096, name="source")
        source.data = "server-block"
        seg = b.nic.tpt.register(source)
        local = a.mem.alloc(4096, name="local")

        def getter():
            data = yield from a.nic.rdma_get(
                "hostB", seg.base, 4096, local_buffer=local,
                capability=seg.capability)
            return data, local.data

        assert sim.run_process(getter()) == ("server-block", "server-block")

    def test_ordma_get_response_time_near_92us(self, rig):
        """Table 3 anchor: 4 KB ORDMA read is ~92 us."""
        sim, params, a, b = rig
        source = b.mem.alloc(4096)
        source.data = "block"
        seg = b.nic.tpt.register(source, pin=False)
        local = a.mem.alloc(4096)

        def getter():
            # Warm the NIC TLB as the paper does.
            yield from a.nic.rdma_get("hostB", seg.base, 4096, local,
                                      capability=seg.capability)
            start = sim.now
            yield from a.nic.rdma_get("hostB", seg.base, 4096, local,
                                      capability=seg.capability)
            return sim.now - start

        elapsed = sim.run_process(getter())
        assert 60.0 < elapsed < 125.0

    def test_optimistic_get_unknown_address_faults(self, rig):
        sim, params, a, b = rig
        local = a.mem.alloc(4096)

        def getter():
            try:
                yield from a.nic.rdma_get("hostB", 0xDEAD0000, 4096, local)
            except RemoteAccessFault as fault:
                return fault.reason

        assert sim.run_process(getter()) is FaultReason.INVALID_TRANSLATION

    def test_optimistic_get_bad_capability_faults(self, rig):
        sim, params, a, b = rig
        source = b.mem.alloc(4096)
        seg = b.nic.tpt.register(source, pin=False)
        local = a.mem.alloc(4096)

        def getter():
            try:
                yield from a.nic.rdma_get("hostB", seg.base, 4096, local,
                                          capability=b"forged-token-123")
            except RemoteAccessFault as fault:
                return fault.reason

        assert sim.run_process(getter()) is FaultReason.BAD_CAPABILITY

    def test_optimistic_get_nonresident_page_faults(self, rig):
        sim, params, a, b = rig
        source = b.mem.alloc(4096)
        seg = b.nic.tpt.register(source, pin=False)
        source.pages[0].evict()
        local = a.mem.alloc(4096)

        def getter():
            try:
                yield from a.nic.rdma_get("hostB", seg.base, 4096, local,
                                          capability=seg.capability)
            except RemoteAccessFault as fault:
                return fault.reason

        assert sim.run_process(getter()) is FaultReason.NOT_RESIDENT

    def test_tlb_loading_pins_target_pages(self, rig):
        sim, params, a, b = rig
        source = b.mem.alloc(4096)
        seg = b.nic.tpt.register(source, pin=False)
        local = a.mem.alloc(4096)

        def getter():
            yield from a.nic.rdma_get("hostB", seg.base, 4096, local,
                                      capability=seg.capability)

        sim.run_process(getter())
        assert source.pages[0].nic_loaded
        assert source.pages[0].pinned

    def test_get_concurrency_pipelines(self, rig):
        """Gets must pipeline at the target: N concurrent gets take far
        less than N times one get (the get turnaround is latency, not
        occupancy). Each side first warms the target's NIC TLB, whose
        host-loaded miss costs milliseconds."""
        sim, params, a, b = rig
        source = b.mem.alloc(64 * 1024)
        source.data = "blk"
        seg = b.nic.tpt.register(source)
        n = 8

        def one_get():
            local = a.mem.alloc(4096)
            yield from a.nic.rdma_get("hostB", seg.base, 4096, local,
                                      capability=seg.capability)

        def serial():
            for _ in range(n):
                yield from one_get()
            return sim.now

        sim_serial = Simulator()
        # Rebuild a rig on a fresh simulator for the serial measurement.
        params2 = default_params()
        switch2 = Switch(sim_serial, params2.net)
        a2 = Host(sim_serial, params2, switch2, "hostA")
        b2 = Host(sim_serial, params2, switch2, "hostB")
        source2 = b2.mem.alloc(64 * 1024)
        seg2 = b2.nic.tpt.register(source2)

        def one_get2():
            local = a2.mem.alloc(4096)
            yield from a2.nic.rdma_get("hostA" and "hostB", seg2.base, 4096,
                                       local, capability=seg2.capability)

        def serial2():
            yield from one_get2()
            start = sim_serial.now
            for _ in range(n):
                yield from one_get2()
            return sim_serial.now - start

        serial_time = sim_serial.run_process(serial2())

        def concurrent():
            yield from one_get()
            start = sim.now
            procs = [sim.process(one_get()) for _ in range(n)]
            yield sim.all_of(procs)
            return sim.now - start

        concurrent_time = sim.run_process(concurrent())
        assert concurrent_time < 0.6 * serial_time


class TestOptimisticCheck:
    """The target's check of an optimistic get."""

    def test_injected_reject_is_reported_once(self, rig):
        """One traced 16 KB get from hostA to hostB with an injected
        rejection pending: one fault event, one ``RDMA_FAULT`` reply, one
        span mark, and the target untouched."""
        sim, params, a, b = rig
        tracer = Tracer.attach(sim)
        b.nic.faults = NicFaults(sim, random.Random(0), component="hostB")
        b.nic.faults.ordma_reject_next = 1
        target = b.mem.alloc(16 * KB, name="target")
        target.data = "original"
        seg = b.nic.tpt.register(target, pin=False)
        sent, replies = [], []
        transmit, nic_send = a.nic.switch.transmit, b.nic._nic_send
        a.nic.switch.transmit = lambda src, frame: (
            sent.append(frame.message), transmit(src, frame))
        b.nic._nic_send = lambda msg: (replies.append(msg.kind),
                                       nic_send(msg))
        span = tracer.start_span("hostA", "get")

        def access():
            try:
                yield from a.nic.rdma_get(
                    "hostB", seg.base, 16 * KB, a.mem.alloc(16 * KB),
                    capability=seg.capability, span=span)
            except RemoteAccessFault as fault:
                return fault.reason

        assert sim.run_process(access()) is FaultReason.INJECTED
        events = tracer.filter(kind="ordma-fault")
        assert len(events) == 1
        assert events[0].detail == {"initiator": "hostA",
                                    "reason": "injected fault",
                                    "msg": sent[0].msg_id}
        assert list(events[0].detail) == ["initiator", "reason", "msg"]
        assert replies == [MsgKind.RDMA_FAULT]
        assert [m[1:] for m in span.marks if m[2] == "ordma.reject"] == [
            ("hostB", "ordma.reject", {"reason": "injected fault"})]
        assert b.nic.stats.get("ordma_fault") == 1
        assert target.data == "original"
