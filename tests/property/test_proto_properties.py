"""Property-based tests for protocol-layer invariants (TCP)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import LinkFaults
from repro.hw import Host
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
