"""Property-based tests for protocol-layer invariants (TCP, locks)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import LinkFaults
from repro.hw import Host
from repro.nas.locks import EXCLUSIVE, SHARED, LockTable
from repro.net import Switch
from repro.params import default_params
from repro.proto.tcp import TCPStack
from repro.sim import RandomStreams, Simulator


class TestTCPDeliveryProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=64 * 1024),
                    min_size=1, max_size=12),
           st.sampled_from([0.0, 0.01, 0.05]))
    def test_all_messages_delivered_in_order_under_loss(self, sizes,
                                                        loss):
        """Whatever the message sizes and loss rate, every framed message
        arrives exactly once, in order, with intact metadata."""
        params = default_params()
        sim = Simulator()
        switch = Switch(sim, params.net)
        switch.faults = LinkFaults(sim, RandomStreams(5).stream("loss"))
        switch.faults.drop_p = loss
        a = Host(sim, params, switch, "A")
        b = Host(sim, params, switch, "B")
        stack_a = TCPStack(a, rto_us=1500.0)
        stack_b = TCPStack(b, rto_us=1500.0)
        listener = stack_b.listen(80)
        received = []

        def client():
            conn = yield from stack_a.connect("B", 80)
            for i, size in enumerate(sizes):
                yield from conn.send("B", size, data=i,
                                     meta={"idx": i})

        def server():
            conn = yield from listener.accept()
            for _ in sizes:
                msg = yield from conn.recv()
                received.append((msg.data, msg.size, msg.meta["idx"]))

        sim.process(client())
        sim.process(server())
        sim.run()
        assert received == [(i, size, i) for i, size in enumerate(sizes)]


class TestLockTableProperties:
    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.sampled_from([SHARED, EXCLUSIVE]),
                              st.integers(min_value=0, max_value=4),
                              st.floats(min_value=0.5, max_value=20.0,
                                        allow_nan=False)),
                    min_size=1, max_size=25))
    def test_exclusivity_invariant(self, requests):
        """At no instant do an exclusive holder and any other holder
        coexist, for arbitrary interleavings of lock requests."""
        sim = Simulator()
        table = LockTable(sim)
        violations = []

        def locker(mode, owner_id, hold):
            owner = f"c{owner_id}-{id(object())}"
            yield table.acquire("f", owner, mode)
            holders = table.holders("f")
            held_mode = table.mode("f")
            if held_mode == EXCLUSIVE and len(holders) > 1:
                violations.append(tuple(holders))
            if mode == EXCLUSIVE and held_mode != EXCLUSIVE:
                violations.append(("mode-mismatch", owner))
            yield sim.timeout(hold)
            table.release("f", owner)

        for i, (mode, owner_id, hold) in enumerate(requests):
            sim.process(locker(mode, owner_id, hold))
        sim.run()
        assert violations == []
        assert table.holders("f") == []  # everything released

    @settings(max_examples=60)
    @given(st.lists(st.sampled_from([SHARED, EXCLUSIVE]),
                    min_size=2, max_size=12))
    def test_all_requests_eventually_granted(self, modes):
        """FIFO queueing never starves any request."""
        sim = Simulator()
        table = LockTable(sim)
        granted = []

        def locker(i, mode):
            yield table.acquire("f", f"o{i}", mode)
            granted.append(i)
            yield sim.timeout(1.0)
            table.release("f", f"o{i}")

        for i, mode in enumerate(modes):
            sim.process(locker(i, mode))
        sim.run()
        assert sorted(granted) == list(range(len(modes)))
