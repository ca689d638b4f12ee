"""Tests for the TCP transport: handshake, framing, windowing, loss."""

import random

import pytest

from repro.faults import LinkFaults
from repro.hw import Host
from repro.net import Switch
from repro.params import default_params
from repro.proto.rpc import RPCClient, RPCReply, RPCServer
from repro.proto import tcp
from repro.proto.tcp import TCPError, TCPStack
from repro.sim import Simulator


def make_pair(params=None):
    sim = Simulator()
    params = params or default_params()
    switch = Switch(sim, params.net)
    a = Host(sim, params, switch, "A")
    b = Host(sim, params, switch, "B")
    return sim, a, b


def make_lossy_pair(drop_p):
    """A pair whose switch drops each frame with probability ``drop_p``."""
    sim, a, b = make_pair()
    faults = LinkFaults(sim, random.Random(0xFA57))
    faults.drop_p = drop_p
    a.nic.switch.faults = faults
    return sim, a, b


def connect(sim, a, b, port=6000):
    stack_a = TCPStack(a)
    stack_b = TCPStack(b)
    listener = stack_b.listen(port)
    client_conn = {}
    server_conn = {}

    def dial():
        conn = yield from stack_a.connect("B", port)
        client_conn["conn"] = conn

    def serve():
        conn = yield from listener.accept()
        server_conn["conn"] = conn

    sim.process(dial())
    sim.process(serve())
    sim.run()
    return client_conn["conn"], server_conn["conn"]


class TestHandshake:
    def test_connect_establishes_both_ends(self):
        sim, a, b = make_pair()
        c, s = connect(sim, a, b)
        assert c.peer == "B" and s.peer == "A"
        assert c._established.triggered and s._established.triggered

    def test_handshake_takes_about_one_rtt(self):
        sim, a, b = make_pair()
        connect(sim, a, b)
        assert 30.0 < sim.now < 200.0

    def test_duplicate_listen_rejected(self):
        sim, a, b = make_pair()
        stack = TCPStack(b)
        stack.listen(1)
        with pytest.raises(TCPError):
            stack.listen(1)


class TestDataTransfer:
    def test_small_message_roundtrip(self):
        sim, a, b = make_pair()
        c, s = connect(sim, a, b)

        def client():
            yield from c.send("B", 100, data="ping", meta={"k": 1})
            reply = yield from c.recv()
            return reply.data, reply.meta["k"]

        def server():
            msg = yield from s.recv()
            yield from s.send("A", 100, data=msg.data + "-pong",
                              meta={"k": msg.meta["k"] + 1})

        sim.process(server())
        proc = sim.process(client())
        sim.run()
        assert proc.value == ("ping-pong", 2)

    def test_large_message_segmented_and_reassembled(self):
        sim, a, b = make_pair()
        c, s = connect(sim, a, b)
        size = 256 * 1024  # 32 MSS

        def client():
            yield from c.send("B", size, data="bulk")

        def server():
            msg = yield from s.recv()
            return msg.size, msg.data

        sim.process(client())
        proc = sim.process(server())
        sim.run()
        assert proc.value == (size, "bulk")

    def test_send_to_wrong_peer_rejected(self):
        sim, a, b = make_pair()
        c, s = connect(sim, a, b)

        def client():
            yield from c.send("C", 10)

        sim.process(client())
        with pytest.raises(TCPError):
            sim.run()

    def test_interleaved_messages_frame_correctly(self):
        sim, a, b = make_pair()
        c, s = connect(sim, a, b)

        def client():
            procs = [sim.process(c.send("B", 64 * 1024, data=f"m{i}"))
                     for i in range(4)]
            yield sim.all_of(procs)

        def server():
            got = []
            for _ in range(4):
                msg = yield from s.recv()
                got.append(msg.data)
            return sorted(got)

        sim.process(client())
        proc = sim.process(server())
        sim.run()
        assert proc.value == ["m0", "m1", "m2", "m3"]


class TestCongestionWindow:
    def test_slow_start_grows_window(self, monkeypatch):
        monkeypatch.setattr(tcp, "INITIAL_CWND", 2)
        monkeypatch.setattr(tcp, "MAX_CWND", 32)
        sim, a, b = make_pair()
        c, s = connect(sim, a, b)

        def client():
            yield from c.send("B", 512 * 1024)

        def server():
            yield from s.recv()

        sim.process(client())
        sim.process(server())
        sim.run()
        assert c._cwnd > 2

    def test_throughput_below_udp_equivalent(self):
        """TCP's per-segment host costs keep it below the offloaded-UDP
        configuration — the paper's reason for choosing UDP (Section 5)."""
        from repro.proto.udp import UDPStack
        size, count = 64 * 1024, 32

        sim, a, b = make_pair()
        c, s = connect(sim, a, b)
        start = sim.now

        def client():
            for i in range(count):
                yield from c.send("B", size, data=i)

        def server():
            for _ in range(count):
                yield from s.recv()
            return count * size / (sim.now - start)

        sim.process(client())
        proc = sim.process(server())
        sim.run()
        tcp_bw = proc.value

        sim2, a2, b2 = make_pair()
        sa = UDPStack(a2).socket(9)
        sb = UDPStack(b2).socket(9)

        def usend():
            for i in range(count):
                yield from sa.send("B", size, data=i)

        def urecv():
            for _ in range(count):
                yield from sb.recv()
            return count * size / sim2.now

        sim2.process(usend())
        uproc = sim2.process(urecv())
        sim2.run()
        assert tcp_bw < uproc.value
        assert tcp_bw > 50.0  # but still a functional bulk transport


class TestLossRecovery:
    def test_messages_survive_loss(self, monkeypatch):
        monkeypatch.setattr(tcp, "RTO_US", 2000.0)
        sim, a, b = make_lossy_pair(0.02)
        c, s = connect(sim, a, b)

        def client():
            for i in range(20):
                yield from c.send("B", 32 * 1024, data=i)

        def server():
            got = []
            for _ in range(20):
                msg = yield from s.recv()
                got.append(msg.data)
            return got

        sim.process(client())
        proc = sim.process(server())
        sim.run()
        assert sorted(proc.value) == list(range(20))
        assert c.retransmissions > 0

    def test_timeout_shrinks_window(self, monkeypatch):
        monkeypatch.setattr(tcp, "RTO_US", 2000.0)
        monkeypatch.setattr(tcp, "INITIAL_CWND", 2)
        sim, a, b = make_lossy_pair(0.05)
        c, s = connect(sim, a, b)

        def client():
            yield from c.send("B", 512 * 1024)

        def server():
            yield from s.recv()

        sim.process(client())
        sim.process(server())
        sim.run()
        assert c.retransmissions > 0
        assert c._ssthresh < tcp.MAX_CWND


class TestRPCOverTCP:
    def test_rpc_works_over_tcp_transport(self):
        """The framed connection satisfies the RPC transport interface."""
        sim, a, b = make_pair()
        c, s = connect(sim, a, b)
        client = RPCClient(a, c, "B")
        server = RPCServer(b, s)

        def read(srv, req):
            yield from srv.host.cpu.execute(1.0)
            return RPCReply(inline_bytes=16384, data="tcp-nfs-data")

        server.register("read", read)
        server.start()

        def caller():
            resp = yield from client.call("read")
            return resp.data

        assert sim.run_process(caller()) == "tcp-nfs-data"
