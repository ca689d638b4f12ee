"""NIC error paths and edge cases."""

import pytest

from repro.hw import Host, ProtectionError
from repro.net import Switch
from repro.params import default_params
from repro.sim import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    params = default_params()
    switch = Switch(sim, params.net)
    a = Host(sim, params, switch, "A")
    b = Host(sim, params, switch, "B")
    return sim, a, b


def test_plain_rdma_to_unregistered_memory_is_a_hard_error(rig):
    """A put (never optimistic) to unmapped memory is a stack bug, not a
    recoverable fault."""
    sim, a, b = rig

    def putter():
        yield from a.nic.rdma_put("B", 0xDEAD0000, 4096, data="x")

    sim.process(putter())
    with pytest.raises(ProtectionError):
        sim.run()


def test_posted_buffer_too_small_is_a_hard_error(rig):
    sim, a, b = rig
    b.nic.open_port(1)
    b.nic.post_receive(1, b.mem.alloc(64))

    def sender():
        yield from a.nic.gm_send("B", 1, 4096, data="big")

    sim.process(sender())
    with pytest.raises(ProtectionError):
        sim.run()


def test_eth_without_handler_is_a_hard_error(rig):
    sim, a, b = rig  # B never binds a UDP/TCP stack

    def sender():
        yield from a.nic.eth_send("B", 100, data="x")

    sim.process(sender())
    with pytest.raises(ProtectionError):
        sim.run()


def test_send_to_unknown_host_is_rejected(rig):
    sim, a, b = rig

    def sender():
        yield from a.nic.gm_send("ghost", 1, 64)

    sim.process(sender())
    with pytest.raises(KeyError):
        sim.run()


def test_duplicate_port_open_rejected(rig):
    sim, a, b = rig
    a.nic.open_port(5)
    with pytest.raises(ValueError):
        a.nic.open_port(5)


def test_zero_byte_gm_send_delivers(rig):
    sim, a, b = rig
    cq = b.nic.open_port(2)
    b.nic.post_receive(2, b.mem.alloc(64))

    def sender():
        yield from a.nic.gm_send("B", 2, 0, data="zero")

    def receiver():
        comp = yield from cq.get()
        return comp.message.size, comp.data

    sim.process(sender())
    proc = sim.process(receiver())
    sim.run()
    assert proc.value == (0, "zero")


def test_duplicate_rdma_ack_is_ignored(rig):
    """A stray duplicate completion for a finished op must not crash."""
    sim, a, b = rig
    target = b.mem.alloc(4096)
    seg = b.nic.tpt.register(target)

    def putter():
        yield from a.nic.rdma_put("B", seg.base, 4096, data="v")
        # Simulate a duplicate ack arriving afterwards.
        a.nic._complete_rdma(12345, ok=True)

    sim.run_process(putter())
    assert target.data == "v"


def test_concurrent_sends_interleave_but_all_deliver(rig):
    sim, a, b = rig
    cq = b.nic.open_port(3)
    for _ in range(10):
        b.nic.post_receive(3, b.mem.alloc(70000))

    def sender(i):
        yield from a.nic.gm_send("B", 3, 64 * 1024 if i % 2 else 100,
                                 data=i)

    def receiver():
        got = []
        for _ in range(10):
            comp = yield from cq.get()
            got.append(comp.data)
        return sorted(got)

    for i in range(10):
        sim.process(sender(i))
    proc = sim.process(receiver())
    sim.run()
    assert proc.value == list(range(10))


def test_simulation_is_deterministic():
    """Two identical runs produce byte-identical results."""
    from repro.bench.figures import fig6_postmark

    def run():
        return fig6_postmark(hit_ratios=(0.5,), n_files=96,
                             transactions=400)

    a, b = run(), run()
    assert a == b
