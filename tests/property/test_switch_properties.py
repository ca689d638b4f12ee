"""Property: the switch's one-event frame path forwards as a timeout per
leg did.

``_PerLegSwitch`` is the switch as it was before a frame crossed the
fabric in one kernel event: a task per frame that waits out the sender's
transmit link, then the hop, then any injected delay, then the receive
link's cut-through transfer, each as its own timeout. Random traffic
with converging senders, with and without injected drops and delays,
must reach every host in the same order at the same times, with the same
forwarding counts and the same link-pipe statistics, through both.

What the two paths do not share is the order among events due at one
instant: the one-event exit draws its seq when the frame is sent, where
the per-leg hop timeout drew its seq once the frame had serialized. Two
directed tests pin where that shows. Deliveries to two hosts at one
instant swap, which no host sees. A frame whose injected delay ends at
the very instant another frame exits toward the same receive link now
yields the link to it, which moves both frames' arrival times; the
property draws delays from a continuous range, where such a tie is not
drawn, and the directed test carries it instead.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import LinkFaults
from repro.net import Switch
from repro.net.packet import Message, MsgKind, fragment
from repro.params import default_params
from repro.sim import Simulator


class _PerLegSwitch(Switch):
    """The switch with a task and a timeout per leg for each frame."""

    def transmit(self, src, frame):
        if frame.dst not in self._ports:
            raise KeyError(f"unknown destination host {frame.dst!r}")
        self.sim.spawn(self._transmit(src, frame))

    def _transmit(self, src, frame):
        sim = self.sim
        dst_port = self._ports[frame.dst]
        yield self._ports[src].tx.transfer(frame.wire_bytes)
        yield sim.timeout(self.params.switch_us
                          + 2 * self.params.propagation_us)
        if self.faults is not None:
            fate, extra_us = self.faults.frame_fate(src, frame.dst)
            if fate != "ok":
                self.frames_dropped += 1
                return
            if extra_us > 0.0:
                yield sim.timeout(extra_us)
        yield sim.timeout(dst_port.rx.reserve_cut_through(frame.wire_bytes))
        self.frames_forwarded += 1
        dst_port.deliver(frame)


def _run(switch_cls, n_hosts, sends, faults=None):
    """Send every message in ``sends`` (time, src, dst, bytes) through a
    fresh switch. Returns the global delivery log of ``(time, msg_id,
    frame index)``, the same log split by receiving host, the
    forwarding counts and every link pipe's statistics."""
    net = default_params().net
    sim = Simulator()
    switch = switch_cls(sim, net)
    hosts = [f"h{i}" for i in range(n_hosts)]
    log = []
    per_host = {host: [] for host in hosts}

    def handler(host):
        def deliver(frame):
            entry = (sim.now, frame.message.msg_id, frame.index)
            log.append(entry)
            per_host[host].append(entry)
        return deliver

    for host in hosts:
        switch.attach(host).set_handler(handler(host))
    if faults is not None:
        drop_p, delay_p, delay_us, seed = faults
        switch.faults = LinkFaults(sim, random.Random(seed))
        switch.faults.drop_p = drop_p
        switch.faults.delay_p = delay_p
        switch.faults.delay_us = delay_us

    def send(msg_id, src, dst, nbytes):
        msg = Message(MsgKind.GM_SEND, src, dst, nbytes, msg_id=msg_id)
        for frame in fragment(msg, net.gm_mtu, net.gm_header_bytes):
            switch.transmit(src, frame)

    for msg_id, (at, src, dst, nbytes) in enumerate(sends, start=1):
        sim.call_at(at, send, msg_id, hosts[src], hosts[dst], nbytes)
    sim.run()
    pipes = [(pipe.stats_bytes, pipe.stats_transfers, pipe.stats_busy_us,
              pipe._free_at)
             for host in hosts
             for pipe in (switch._ports[host].tx, switch._ports[host].rx)]
    return (log, per_host,
            (switch.frames_forwarded, switch.frames_dropped), pipes)


@st.composite
def _traffic(draw):
    """3-4 hosts; messages of random size and send time, most of them to
    host 0 so that senders converge on its receive link."""
    n_hosts = draw(st.integers(min_value=3, max_value=4))
    sends = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        src = draw(st.integers(min_value=0, max_value=n_hosts - 1))
        dst = draw(st.sampled_from(
            [0, 0, 0] + [h for h in range(1, n_hosts) if h != src]))
        if dst == src:
            dst = (src + 1) % n_hosts
        at = draw(st.one_of(
            st.integers(min_value=0, max_value=40).map(float),
            st.floats(min_value=0.0, max_value=120.0, allow_nan=False)))
        nbytes = draw(st.one_of(st.sampled_from([0, 4096, 8192]),
                                st.integers(min_value=0,
                                            max_value=20_000)))
        sends.append((at, src, dst, nbytes))
    return n_hosts, sends


#: No faults, or (drop_p, delay_p, delay_us, rng seed).
_FAULTS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from([0.0, 0.2, 0.5]),
              st.sampled_from([0.0, 0.3, 1.0]),
              st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
              st.integers(min_value=0, max_value=2**16)))


@settings(max_examples=300, deadline=None)
@given(_traffic(), _FAULTS)
def test_one_event_switch_forwards_as_the_per_leg_switch(traffic, faults):
    n_hosts, sends = traffic
    _log, per_host, counts, pipes = _run(Switch, n_hosts, sends, faults)
    _ref_log, ref_per_host, ref_counts, ref_pipes = _run(
        _PerLegSwitch, n_hosts, sends, faults)
    assert per_host == ref_per_host
    assert counts == ref_counts
    assert pipes == ref_pipes


def test_deliveries_to_two_hosts_at_one_instant_follow_the_send_order():
    """h0 sends a short frame and then a full one to h1; h2 sends a full
    frame to h0, where h1's short frame has just made the receive link
    busy. h0's full frame and h2's both reach their NICs at 18.784 µs.
    The one-event exit of h0's frame, drawn at send, comes first and
    hands the frame over at once; the per-leg path handed it over one
    run-queue step after its hop, behind h2's busy-link delivery."""
    sends = [(0.0, 0, 1, 0), (0.0, 0, 1, 4096), (0.0, 1, 0, 0),
             (0.0, 2, 0, 4096)]
    log, per_host, _counts, _pipes = _run(Switch, 3, sends)
    ref_log, ref_per_host, _counts, _pipes = _run(_PerLegSwitch, 3, sends)
    assert log[2:] == [(18.784, 2, 0), (18.784, 4, 0)]
    assert ref_log[2:] == [(18.784, 4, 0), (18.784, 2, 0)]
    assert per_host == ref_per_host


def test_a_delayed_frame_yields_the_link_to_a_frame_exiting_at_its_instant():
    """An injected delay holds h0's short frame until 18.784 µs, the
    instant h0's full frame, queued behind it on the transmit link,
    exits toward the same receive link. The full frame's exit was drawn
    at send, before the delay, so it takes the idle link and the short
    frame waits out its serialization; the per-leg path drew the full
    frame's hop only once it had serialized, after the delay, and gave
    the link to the short frame, so both frames arrive at other times."""
    net = default_params().net

    def run(switch_cls):
        sim = Simulator()
        switch = switch_cls(sim, net)
        switch.attach("h0")
        log = []
        switch.attach("h1").set_handler(
            lambda frame: log.append((sim.now, frame.message.msg_id)))
        switch.faults = LinkFaults(sim, random.Random(0))
        switch.faults.delay_next = 1
        switch.faults.delay_us = 16.784
        for msg_id, nbytes in ((1, 0), (2, 4096)):
            msg = Message(MsgKind.GM_SEND, "h0", "h1", nbytes,
                          msg_id=msg_id)
            switch.transmit("h0", fragment(msg, net.gm_mtu,
                                           net.gm_header_bytes)[0])
        sim.run()
        return log

    assert run(Switch) == [(18.784, 2), (pytest.approx(19.184), 1)]
    assert run(_PerLegSwitch) == [(18.784, 1), (pytest.approx(35.568), 2)]
