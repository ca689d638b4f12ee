"""Table 2: baseline network performance of the transport protocols.

Reproduces the gm_allsize / pingpong / netperf measurements of Section 5:
one-byte round-trip time and streaming bandwidth for GM, VI (polling and
blocking completion) and UDP over the Ethernet emulation.
"""

from __future__ import annotations

from typing import Dict

from ..hw.host import Host
from ..hw.nic import NotifyMode
from ..net.link import Switch
from ..params import KB, Params, default_params
from ..proto.messaging import GMEndpoint
from ..proto.udp import UDPStack
from ..proto.vi import VIEndpoint
from ..sim import Simulator


def _pair(params: Params):
    sim = Simulator()
    switch = Switch(sim, params.net)
    return sim, Host(sim, params, switch, "A"), Host(sim, params, switch, "B")


#: Ping-pongs per round-trip measurement (the first one is discarded).
RTT_ROUNDS = 20
#: Messages of ``STREAM_BYTES`` per streaming-bandwidth measurement.
STREAM_COUNT = 64
STREAM_BYTES = 64 * KB


def _endpoint_rtt(sim, ep_a, ep_b) -> float:
    """Mean 1-byte ping-pong RTT over ``RTT_ROUNDS`` (first discarded)."""

    def pong():
        for _ in range(RTT_ROUNDS):
            yield from ep_b.recv()
            yield from ep_b.send("A", 1)

    def ping():
        samples = []
        for _ in range(RTT_ROUNDS):
            start = sim.now
            yield from ep_a.send("B", 1)
            yield from ep_a.recv()
            samples.append(sim.now - start)
        return sum(samples[1:]) / len(samples[1:])

    sim.process(pong())
    proc = sim.process(ping())
    sim.run()
    return proc.value


def _endpoint_bw(sim, ep_a, ep_b) -> float:
    """Streaming bandwidth of ``STREAM_COUNT`` back-to-back messages."""
    def sender():
        for i in range(STREAM_COUNT):
            yield from ep_a.send("B", STREAM_BYTES, data=i)

    def receiver():
        for _ in range(STREAM_COUNT):
            yield from ep_b.recv()
        return STREAM_COUNT * STREAM_BYTES / sim.now

    sim.process(sender())
    proc = sim.process(receiver())
    sim.run()
    return proc.value


def gm_baseline(params: Params = None) -> Dict[str, float]:
    """GM raw messaging: 1-byte round trip + 64 KB streaming bandwidth."""
    params = params or default_params()
    sim, a, b = _pair(params)
    ep_a = GMEndpoint(a, 1, slots=8, buf_size=64 * KB)
    ep_b = GMEndpoint(b, 1, slots=80, buf_size=64 * KB)
    rtt = _endpoint_rtt(sim, ep_a, ep_b)
    sim2, a2, b2 = _pair(params)
    bw = _endpoint_bw(sim2,
                      GMEndpoint(a2, 1, slots=8, buf_size=64 * KB),
                      GMEndpoint(b2, 1, slots=80, buf_size=64 * KB))
    return {"roundtrip_us": rtt, "bandwidth_mb_s": bw}


def vi_baseline(params: Params = None, mode: str = "poll") -> Dict[str, float]:
    """VI over GM with polling or blocking completion (Table 2 rows 2-3)."""
    params = params or default_params()
    notify = NotifyMode.POLL if mode == "poll" else NotifyMode.BLOCK
    sim, a, b = _pair(params)
    ep_a = VIEndpoint(a, 1, mode=notify, slots=8, buf_size=64 * KB)
    ep_b = VIEndpoint(b, 1, mode=notify, slots=80, buf_size=64 * KB)
    rtt = _endpoint_rtt(sim, ep_a, ep_b)
    sim2, a2, b2 = _pair(params)
    bw = _endpoint_bw(sim2,
                      VIEndpoint(a2, 1, mode=notify, slots=8,
                                 buf_size=64 * KB),
                      VIEndpoint(b2, 1, mode=notify, slots=80,
                                 buf_size=64 * KB))
    return {"roundtrip_us": rtt, "bandwidth_mb_s": bw}


def udp_baseline(params: Params = None) -> Dict[str, float]:
    """netperf-style UDP: round-trip plus a copy-each-side stream."""
    params = params or default_params()
    sim, a, b = _pair(params)
    sock_a = UDPStack(a).socket(9000)
    sock_b = UDPStack(b).socket(9000)
    rounds = 20

    def pong():
        for _ in range(rounds):
            yield from sock_b.recv()
            yield from sock_b.send("A", 1)

    def ping():
        samples = []
        for _ in range(rounds):
            start = sim.now
            yield from sock_a.send("B", 1)
            yield from sock_a.recv()
            samples.append(sim.now - start)
        return sum(samples[1:]) / len(samples[1:])

    sim.process(pong())
    proc = sim.process(ping())
    sim.run()
    rtt = proc.value

    sim2, a2, b2 = _pair(params)
    sa = UDPStack(a2).socket(9000)
    sb = UDPStack(b2).socket(9000)
    count, nbytes = 64, 32 * KB

    def sender():
        for i in range(count):
            yield from sa.send("B", nbytes, data=i, copy="cached")

    def receiver():
        for _ in range(count):
            msg = yield from sb.recv()
            yield from b2.cpu.copy(msg.size, cached=True)
        return count * nbytes / sim2.now

    sim2.process(sender())
    proc2 = sim2.process(receiver())
    sim2.run()
    return {"roundtrip_us": rtt, "bandwidth_mb_s": proc2.value}


#: Paper's Table 2 values, for side-by-side reporting.
PAPER_TABLE2 = {
    "GM": {"roundtrip_us": 23.0, "bandwidth_mb_s": 244.0},
    "VI poll": {"roundtrip_us": 23.0, "bandwidth_mb_s": 244.0},
    "VI block": {"roundtrip_us": 53.0, "bandwidth_mb_s": 244.0},
    "UDP/Ethernet": {"roundtrip_us": 80.0, "bandwidth_mb_s": 166.0},
}


def table2(params: Params = None) -> Dict[str, Dict[str, float]]:
    """All four Table 2 rows."""
    return {
        "GM": gm_baseline(params),
        "VI poll": vi_baseline(params, "poll"),
        "VI block": vi_baseline(params, "block"),
        "UDP/Ethernet": udp_baseline(params),
    }
