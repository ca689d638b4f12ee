"""Links and the cluster switch.

The testbed is four PCs on a 2 Gb/s full-duplex switch (Section 5). Each
host owns a transmit pipe and a receive pipe at link rate; the switch is
cut-through with a fixed forwarding latency. Contention appears exactly
where it did on the testbed: a server streaming to two clients serializes
on the server's transmit link (Fig. 7's saturation point).

A frame costs the kernel one event from :meth:`Switch.transmit` to the
receiving NIC over an idle receive link, and two when that link is busy
(an injected delay adds one): the send reserves the transmit link and
schedules the switch exit at exactly the time a timeout per leg would
reach, and the exit accounts the receive link's cut-through transfer.
The times are the per-leg ones, but the exit draws its seq when the frame
is sent, where those timeouts drew theirs later, so the order among
events at one instant is kept by check (seeded outputs compared byte for
byte against the per-leg path), not by construction.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..params import NetworkParams
from ..sim import BandwidthPipe, Simulator, rate_probe
from .packet import Frame

FrameHandler = Callable[[Frame], None]


class NetworkPort:
    """One host's full-duplex attachment to the fabric."""

    def __init__(self, sim: Simulator, params: NetworkParams, name: str):
        self.sim = sim
        self.params = params
        self.name = name
        self.tx = BandwidthPipe(sim, params.link_bw, name=f"{name}.tx")
        self.rx = BandwidthPipe(sim, params.link_bw, name=f"{name}.rx")
        self._handler: FrameHandler = _unattached

    def set_handler(self, handler: FrameHandler) -> None:
        self._handler = handler

    def deliver(self, frame: Frame) -> None:
        self._handler(frame)

    def gauges(self) -> Dict[str, Callable[[], float]]:
        """Telemetry probes for a :class:`~repro.sim.TimeSeriesSampler`:
        bytes-in-flight per direction (committed but not yet serialized)
        and windowed link utilization from the pipes' busy time."""
        return {
            "tx_backlog": self.tx.backlog_bytes,
            "rx_backlog": self.rx.backlog_bytes,
            "tx_util": rate_probe(self.sim, lambda: self.tx.stats_busy_us),
            "rx_util": rate_probe(self.sim, lambda: self.rx.stats_busy_us),
        }


def _unattached(frame: Frame) -> None:
    raise RuntimeError(f"frame for {frame.dst!r} arrived at unattached port")


class Switch:
    """Cut-through switch connecting all hosts."""

    def __init__(self, sim: Simulator, params: NetworkParams):
        self.sim = sim
        self.params = params
        self.name = "switch"
        self._ports: Dict[str, NetworkPort] = {}
        self.frames_forwarded = 0
        self.frames_dropped = 0
        #: Fault-injection state (repro.faults.LinkFaults), the one way
        #: frames are lost; ``None`` means the fabric is healthy and the
        #: forwarding path pays no checks.
        self.faults = None

    def attach(self, host_name: str) -> NetworkPort:
        if host_name in self._ports:
            raise ValueError(f"host {host_name!r} already attached")
        port = NetworkPort(self.sim, self.params, name=host_name)
        self._ports[host_name] = port
        return port

    def gauges(self) -> Dict[str, Callable[[], float]]:
        """Telemetry probes for a :class:`~repro.sim.TimeSeriesSampler`:
        total queue occupancy across every attached port (bytes committed
        to a pipe but not yet drained) and the windowed forwarding rate
        in frames per second."""
        def queue_bytes() -> float:
            return sum(port.tx.backlog_bytes() + port.rx.backlog_bytes()
                       for port in self._ports.values())

        return {
            "queue_bytes": queue_bytes,
            "frames_s": rate_probe(
                self.sim, lambda: float(self.frames_forwarded), scale=1e6),
        }

    def transmit(self, src: str, frame: Frame) -> None:
        """Send ``frame`` from host ``src`` across the fabric.

        Called from NIC context. The frame takes the sender's transmit
        link at once, queueing behind the frames already on it, and leaves
        the switch once it has serialized and crossed the forwarding
        latency and both propagation delays: one kernel event, at the time
        a timeout for each leg would reach.
        """
        if frame.dst not in self._ports:
            raise KeyError(f"unknown destination host {frame.dst!r}")
        sim = self.sim
        if sim.tracer is not None:
            sim.tracer.emit(self.name, "link-tx-start", src=src,
                            dst=frame.dst, bytes=frame.wire_bytes,
                            msg=frame.message.msg_id, frame=frame.index)
        sent = sim.now + self._ports[src].tx.reserve(frame.wire_bytes)
        hop = self.params.switch_us + 2 * self.params.propagation_us
        sim.call_at(sent + hop, self._exit, src, frame)

    def _exit(self, src: str, frame: Frame) -> None:
        """The frame leaves the switch: injected fabric faults drop it or
        stretch its forwarding latency, else it enters the receive link."""
        if self.faults is not None:
            fate, extra_us = self.faults.frame_fate(src, frame.dst)
            if fate != "ok":
                self.frames_dropped += 1
                return
            if extra_us > 0.0:
                self.sim.call_at(self.sim.now + extra_us, self._receive,
                                 src, frame)
                return
        self._receive(src, frame)

    def _receive(self, src: str, frame: Frame) -> None:
        """Cut-through onto the receive link: with the link idle the bits
        streamed in while the sender serialized, so the frame reaches the
        NIC now; under convergence it waits out the link's full
        serialization time."""
        sim = self.sim
        delay = self._ports[frame.dst].rx.reserve_cut_through(
            frame.wire_bytes)
        if delay > 0.0:
            sim.call_at(sim.now + delay, self._deliver, src, frame)
        else:
            self._deliver(src, frame)

    def _deliver(self, src: str, frame: Frame) -> None:
        """Hand the frame, fully drained, to the receiving NIC."""
        self.frames_forwarded += 1
        if self.sim.tracer is not None:
            self.sim.tracer.emit(self.name, "link-tx-end", src=src,
                                 dst=frame.dst, bytes=frame.wire_bytes,
                                 msg=frame.message.msg_id, frame=frame.index)
        self._ports[frame.dst].deliver(frame)
