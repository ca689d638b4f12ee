"""TCP over the Ethernet emulation, with message framing.

The testbed ran NFS over UDP "to avoid the higher overhead of TCP",
noting the configuration "approximates the benefits of offloading TCP if
it were supported by the NIC" (Section 5). This module supplies the
counterfactual: a host-resident TCP with the costs the paper avoided —
per-segment processing on both sides, ACK traffic and processing, windowed
transmission bounded by a congestion window, and timeout-driven
retransmission — so the UDP-vs-TCP trade-off is measurable
(`repro-bench ablations` includes the comparison).

Framing: RDDP over a stream transport needs upper-level message boundaries
preserved (Section 2.1 cites SCTP's framing). :class:`TCPMessageChannel`
length-frames messages over a connection and exposes the same
``send``/``recv`` interface as the other RPC transports.

Simplifications (documented, deliberate): a fixed MSS equal to the
Ethernet-emulation fragment payload; slow start + AIMD on timeout loss
only (no fast retransmit — the fabric reorders nothing); byte-counting
ACKs every segment; no delayed-ACK timer (Myrinet RTTs are microseconds).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Any, Deque, Dict, Generator, Optional, Tuple

from ..hw.cpu import PRIO_KERNEL
from ..hw.host import Host
from ..net.packet import Message
from ..sim import Event, Store


class TCPError(RuntimeError):
    """Connection misuse (double connect, send on closed, ...)."""


class TCPStack:
    """Per-host TCP, multiplexing connections over the Ethernet NIC.

    One stack per host; it shares the NIC's Ethernet personality with
    nothing else (a host uses either UDP or TCP in one experiment).
    """

    _ports = itertools.count(40_000)

    def __init__(self, host: Host, segment_cost_us: float = 11.0,
                 ack_cost_us: float = 2.5, rto_us: float = 5_000.0,
                 initial_cwnd: int = 4, max_cwnd: int = 64):
        """``segment_cost_us`` is the host CPU charge per data segment —
        deliberately above the UDP per-fragment cost (checksummed,
        stateful, in-order protocol processing: the overhead the paper's
        offloaded-UDP configuration avoids)."""
        self.host = host
        self.params = host.params
        self.segment_cost_us = segment_cost_us
        self.ack_cost_us = ack_cost_us
        self.rto_us = rto_us
        self.initial_cwnd = initial_cwnd
        self.max_cwnd = max_cwnd
        #: (local_port) -> listener store of inbound connection requests
        self._listeners: Dict[int, Store] = {}
        #: (local_port, peer, peer_port) -> connection
        self._conns: Dict[Tuple[int, str, int], "TCPConnection"] = {}
        host.nic.set_eth_handler(self._from_nic)

    @property
    def mss(self) -> int:
        return self.params.net.ip_fragment_payload

    # -- connection management ---------------------------------------------

    def listen(self, port: int) -> "TCPListener":
        if port in self._listeners:
            raise TCPError(f"port {port} already listening on "
                           f"{self.host.name}")
        store = Store(self.host.sim, name=f"{self.host.name}:l{port}")
        self._listeners[port] = store
        return TCPListener(self, port, store)

    def connect(self, peer: str, port: int) -> Generator:
        """Active open; yields through the three-way handshake and
        returns the established :class:`TCPConnection`."""
        local_port = next(self._ports)
        conn = TCPConnection(self, local_port, peer, port)
        self._conns[(local_port, peer, port)] = conn
        yield from self.host.cpu.syscall()
        yield from self._send_control(conn, "syn")
        yield conn._established
        return conn

    # -- wire I/O -------------------------------------------------------------

    def _send_control(self, conn: "TCPConnection", kind: str,
                      extra: Optional[Dict[str, Any]] = None) -> Generator:
        meta = {"tcp": kind, "src_port": conn.local_port,
                "dst_port": conn.peer_port}
        meta.update(extra or {})
        yield from self.host.cpu.execute(self.ack_cost_us, category="tcp")
        yield from self.host.nic.eth_send(conn.peer, 0, meta=meta,
                                          port=conn.peer_port)

    def _from_nic(self, msg: Message) -> None:
        self.host.sim.spawn(self._deliver(msg))

    def _deliver(self, msg: Message) -> Generator:
        cpu = self.host.cpu
        yield from cpu.interrupt(
            coalesce_window_us=self.params.nic.interrupt_coalesce_us)
        kind = msg.meta.get("tcp")
        if kind == "syn":
            yield from self._handle_syn(msg)
            return
        key = (msg.meta["dst_port"], msg.src, msg.meta["src_port"])
        conn = self._conns.get(key)
        if conn is None:
            return  # RST territory; silently dropped in the model
        if kind == "syn-ack":
            yield from cpu.execute(self.ack_cost_us, category="tcp")
            if not conn._established.triggered:
                yield from self._send_control(conn, "ack")
                conn._established.succeed(None)
        elif kind == "ack":
            yield from cpu.execute(self.ack_cost_us, category="tcp")
            conn._on_ack(msg.meta.get("seq", 0))
        elif kind == "data":
            yield from cpu.execute(self.segment_cost_us, category="tcp",
                                   priority=PRIO_KERNEL)
            yield from self._send_control(conn, "ack",
                                          {"seq": msg.meta["seq"]})
            conn._on_data(msg)

    def _handle_syn(self, msg: Message) -> Generator:
        port = msg.meta["dst_port"]
        listener = self._listeners.get(port)
        if listener is None:
            return
        conn = TCPConnection(self, port, msg.src, msg.meta["src_port"])
        self._conns[(port, msg.src, msg.meta["src_port"])] = conn
        yield from self._send_control(conn, "syn-ack")
        conn._established.succeed(None)
        listener.put(conn)


class TCPListener:
    """Passive side of connection establishment."""

    def __init__(self, stack: TCPStack, port: int, store: Store):
        self.stack = stack
        self.port = port
        self.store = store

    def accept(self) -> Generator:
        yield from self.stack.host.cpu.syscall()
        conn = yield self.store.get()
        return conn


class TCPConnection:
    """One established connection: windowed, reliable, framed."""

    def __init__(self, stack: TCPStack, local_port: int, peer: str,
                 peer_port: int):
        self.stack = stack
        self.local_port = local_port
        self.peer = peer
        self.peer_port = peer_port
        self._established = Event(stack.host.sim)
        self._next_seq = 0
        #: seq -> (retries, acked event)
        self._unacked: Dict[int, Event] = {}
        self._cwnd = stack.initial_cwnd
        self._ssthresh = stack.max_cwnd
        self._in_flight = 0
        self._send_waiters: Deque[Event] = deque()
        self._frames: Store = Store(stack.host.sim)
        #: frame_id -> (segments received, meta-carrying segment)
        self._rx_frames: Dict[int, Tuple[int, Optional[Message]]] = {}
        #: Per-direction frame sequencing: frames are released to recv()
        #: strictly in send order, as TCP's byte stream would. A frame that
        #: lost a segment blocks later frames until its retransmit lands.
        self._tx_frame_seq = itertools.count()
        self._rx_next_frame = 0
        self._rx_ready: Dict[int, Optional[Message]] = {}
        self.retransmissions = 0

    # -- congestion window -------------------------------------------------

    def _on_ack(self, seq: int) -> None:
        pending = self._unacked.pop(seq, None)
        if pending is None:
            return  # duplicate ack for a retransmitted segment
        self._in_flight -= 1
        if self._cwnd < self._ssthresh:
            self._cwnd = min(self._cwnd * 2, self.stack.max_cwnd)  # slow start
        elif self._cwnd < self.stack.max_cwnd:
            self._cwnd += 1  # congestion avoidance
        pending.succeed(None)
        self._wake_senders()

    def _on_timeout(self) -> None:
        self._ssthresh = max(2, self._cwnd // 2)
        self._cwnd = self.stack.initial_cwnd
        self.retransmissions += 1

    def _wake_senders(self) -> None:
        while self._send_waiters and self._in_flight < self._cwnd:
            self._in_flight += 1
            self._send_waiters.popleft().succeed(None)

    def _window_slot(self) -> Generator:
        if self._in_flight < self._cwnd:
            self._in_flight += 1
            return
        waiter = Event(self.stack.host.sim)
        self._send_waiters.append(waiter)
        yield waiter

    # -- segment transmission ------------------------------------------------

    def _send_segment(self, nbytes: int,
                      meta: Dict[str, Any]) -> Generator:
        """Reliably deliver one MSS-or-smaller segment."""
        stack = self.stack
        host = stack.host
        yield from self._window_slot()
        seq = self._next_seq
        self._next_seq += 1
        while True:
            yield from host.cpu.execute(stack.segment_cost_us,
                                        category="tcp")
            acked = Event(host.sim)
            self._unacked[seq] = acked
            seg_meta = {"tcp": "data", "seq": seq,
                        "src_port": self.local_port,
                        "dst_port": self.peer_port}
            seg_meta.update(meta)
            yield from host.nic.eth_send(self.peer, nbytes, meta=seg_meta,
                                         port=self.peer_port)
            timeout = host.sim.timeout(stack.rto_us)
            yield host.sim.any_of([acked, timeout])
            if acked.triggered:
                return
            # Retransmission timeout: back off and resend this segment.
            self._unacked.pop(seq, None)
            self._on_timeout()

    # -- framed message interface (RPC transport compatible) -----------------

    _frame_ids = itertools.count(1)

    def send(self, dst: str, nbytes: int, data: Any = None,
             meta: Optional[Dict[str, Any]] = None) -> Generator:
        """Length-framed message send; ``dst`` must be the peer.

        Segments are issued concurrently (bounded by the congestion
        window) and the call returns when every segment is acknowledged.
        """
        if dst != self.peer:
            raise TCPError(f"connection to {self.peer!r} cannot send to "
                           f"{dst!r}")
        sim = self.stack.host.sim
        yield from self.stack.host.cpu.syscall()
        mss = self.stack.mss
        total = max(1, math.ceil(nbytes / mss))
        frame_id = next(self._frame_ids)
        frame_seq = next(self._tx_frame_seq)
        remaining = nbytes
        procs = []
        for index in range(total):
            chunk = min(mss, remaining) if nbytes else 0
            remaining -= chunk
            seg_meta = {"frame_id": frame_id, "frame_count": total,
                        "frame_bytes": nbytes, "frame_seq": frame_seq}
            if index == total - 1:
                seg_meta["frame_meta"] = dict(meta or {})
                seg_meta["frame_data"] = data
            procs.append(sim.process(
                self._send_segment(chunk, seg_meta),
                name=f"tcp-seg:{self.local_port}"))
        yield sim.all_of(procs)

    def _on_data(self, msg: Message) -> None:
        """Count segments per framed message; complete on the last one."""
        frame_id = msg.meta["frame_id"]
        got, carrier = self._rx_frames.get(frame_id, (0, None))
        got += 1
        if "frame_meta" in msg.meta:
            carrier = msg
        if got == msg.meta["frame_count"]:
            self._rx_frames.pop(frame_id, None)
            self._rx_ready[msg.meta["frame_seq"]] = carrier
            while self._rx_next_frame in self._rx_ready:
                self._frames.put(self._rx_ready.pop(self._rx_next_frame))
                self._rx_next_frame += 1
        else:
            self._rx_frames[frame_id] = (got, carrier)

    def recv(self) -> Generator:
        """Receive the next framed message; returns a Message whose size
        and meta reflect the framing layer."""
        yield from self.stack.host.cpu.syscall()
        last = yield self._frames.get()
        reassembled = Message(
            last.kind, last.src, last.dst, last.meta["frame_bytes"],
            port=last.port, data=last.meta.get("frame_data"),
            meta=dict(last.meta.get("frame_meta", {})),
        )
        return reassembled
