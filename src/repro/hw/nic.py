"""NIC model: LANai9.2-class adapter with messaging, RDMA and ORDMA.

The NIC owns a firmware processor (serializes per-frame work), DMA engines
on the host PCI bus, a TPT + on-board TLB for RDMA address translation, and
an interrupt/polling notification path to the host. Three personalities run
over the same hardware, as on the testbed (Section 5):

* **GM messaging** — send/receive into pre-posted buffers.
* **RDMA get/put** — remote memory access with optional *optimistic*
  semantics: capability check, residency/lock check, and NIC-to-NIC
  recoverable faults (Section 4.1).
* **Ethernet emulation** — frames DMA'd to kernel buffers and handed to a
  host interrupt handler (the UDP/IP path).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Optional

from ..integrity.checksum import corrupt_payload
from ..net.link import Switch
from ..net.packet import Frame, Message, MsgKind, Reassembler, fragment
from ..params import Params
from ..sim import (Counter, Event, Resource, Simulator, Store, rate_probe,
                   trace_emit)
from .cpu import CPU
from .memory import Buffer
from .pci import PCIBus
from .tpt import TPT, FaultReason, NicTLB, ProtectionError, RemoteAccessFault


class NotifyMode(enum.Enum):
    """How the host learns about completions (Table 2's poll vs block)."""

    POLL = "poll"
    BLOCK = "block"


class Completion:
    """One completion queue entry."""

    __slots__ = ("kind", "message", "data", "context")

    def __init__(self, kind: MsgKind, message: Optional[Message] = None,
                 data: Any = None, context: Any = None):
        self.kind = kind
        self.message = message
        self.data = data
        self.context = context


class CompletionQueue:
    """Notification channel between NIC and a host consumer.

    POLL mode charges the consumer one poll per completion retrieved;
    BLOCK mode charges an interrupt (coalesced) plus a scheduler wakeup on
    the delivery path before the consumer resumes — the 23 us vs 53 us VI
    round-trip difference of Table 2.
    """

    def __init__(self, sim: Simulator, cpu: CPU, params: Params,
                 mode: NotifyMode = NotifyMode.POLL, name: str = ""):
        self.sim = sim
        self.cpu = cpu
        self.params = params
        self.mode = mode
        self.name = name
        self._store = Store(sim, name=name)
        self.delivered = 0

    def __len__(self) -> int:
        return len(self._store)

    def push(self, comp: Completion) -> None:
        self.delivered += 1
        if self.mode is NotifyMode.BLOCK:
            self.sim.spawn(self._blocking_delivery(comp))
        else:
            self._store.put(comp)

    def _blocking_delivery(self, comp: Completion) -> Generator:
        yield from self.cpu.interrupt(
            coalesce_window_us=self.params.nic.interrupt_coalesce_us)
        yield from self.cpu.wakeup()
        self._store.put(comp)

    def get(self) -> Generator:
        """Retrieve the next completion (process-style helper)."""
        comp = yield self._store.get()
        if self.mode is NotifyMode.POLL:
            yield from self.cpu.poll()
        return comp


class NIC:
    """One network adapter, attached to a host and the cluster switch."""

    def __init__(self, sim: Simulator, params: Params, host_name: str,
                 cpu: CPU, pci: PCIBus, switch: Switch,
                 use_capabilities: bool = True):
        self.sim = sim
        self.params = params
        self.name = host_name
        self.cpu = cpu
        self.pci = pci
        self.switch = switch
        self.port = switch.attach(host_name)
        self.port.set_handler(self._deliver)
        self.firmware = Resource(sim, name=f"{host_name}.fw")
        self.tpt = TPT(use_capabilities=use_capabilities)
        self.tlb = NicTLB(params.nic.tlb_entries)
        self.stats = Counter()
        self._reassembler = Reassembler()
        #: GM port -> queue of pre-posted receive buffers
        self._recv_buffers: Dict[int, Deque[Buffer]] = {}
        #: GM port -> completion queue
        self._recv_cqs: Dict[int, CompletionQueue] = {}
        #: outstanding initiator-side RDMA operations, by message id
        self._pending_rdma: Dict[int, Dict[str, Any]] = {}
        #: Ethernet-emulation receive upcall (set by the UDP stack)
        self._eth_handler: Optional[Callable[[Message], None]] = None
        #: RDDP-RPC tag table: RPC xid -> target Buffer (Section 3.2)
        self._rddp_tags: Dict[int, Buffer] = {}
        #: Fault-injection state (repro.faults.NicFaults); ``None`` means
        #: healthy firmware and no per-operation checks.
        self.faults = None
        #: Initiator-side RDMA recovery timeout; ``None`` (the default)
        #: waits forever, exact for a lossless fabric. Fault-injection
        #: runs set it so lost frames surface as recoverable
        #: :class:`RemoteAccessFault` (TIMEOUT) instead of hangs.
        self.rdma_timeout_us: Optional[float] = None

    def gauges(self) -> Dict[str, Callable[[], float]]:
        """Telemetry probes for a :class:`~repro.sim.TimeSeriesSampler`:
        firmware queue depth (doorbell-serialized per-frame work, queued
        plus in service), outstanding initiator-side RDMA operations, and
        DMA bandwidth over the sampling window (B/µs == MB/s)."""
        return {
            "fw_queue": lambda: float(self.firmware.queue_len
                                      + self.firmware.count),
            "rdma_outstanding": lambda: float(len(self._pending_rdma)),
            "dma_mb_s": rate_probe(
                self.sim, lambda: float(self.stats.get("dma_bytes"))),
        }

    def _doorbell(self) -> Generator:
        """Ring a doorbell: the PIO cost plus any injected firmware stall."""
        yield from self.cpu.execute(self.params.nic.doorbell_us,
                                    category="doorbell")
        if self.faults is not None:
            stall_us = self.faults.doorbell_delay()
            if stall_us > 0.0:
                yield self.sim.timeout(stall_us)

    # ------------------------------------------------------------------
    # GM messaging (host-facing)
    # ------------------------------------------------------------------

    def open_port(self, port: int,
                  mode: NotifyMode = NotifyMode.POLL) -> CompletionQueue:
        """Create the receive queue pair for a GM port."""
        if port in self._recv_cqs:
            raise ValueError(f"port {port} already open on {self.name}")
        self._recv_buffers[port] = deque()
        cq = CompletionQueue(self.sim, self.cpu, self.params, mode=mode,
                             name=f"{self.name}:{port}")
        self._recv_cqs[port] = cq
        return cq

    def post_receive(self, port: int, buffer: Buffer) -> None:
        """Pre-post a pinned receive buffer on a GM port."""
        self._recv_buffers[port].append(buffer)

    def gm_send(self, dst: str, port: int, nbytes: int, data: Any = None,
                meta: Optional[Dict[str, Any]] = None) -> Generator:
        """Hand a send descriptor to the NIC. Returns when the doorbell is
        rung; transmission proceeds asynchronously."""
        yield from self._doorbell()
        msg = Message(MsgKind.GM_SEND, self.name, dst, nbytes, port=port,
                      data=data, meta=meta or {})
        self.stats.incr("gm_send")
        if self.sim.tracer is not None:
            self.sim.tracer.emit(self.name, "gm-send", dst=dst, port=port,
                                 bytes=nbytes, msg=msg.msg_id)
        self._post(msg)

    # ------------------------------------------------------------------
    # Ethernet emulation (UDP/IP path)
    # ------------------------------------------------------------------

    def set_eth_handler(self, handler: Callable[[Message], None]) -> None:
        self._eth_handler = handler

    def eth_send(self, dst: str, nbytes: int, data: Any = None,
                 meta: Optional[Dict[str, Any]] = None,
                 port: int = 0) -> Generator:
        """Queue an Ethernet-emulation datagram for transmission."""
        yield from self._doorbell()
        msg = Message(MsgKind.ETH, self.name, dst, nbytes, port=port,
                      data=data, meta=meta or {})
        self.stats.incr("eth_send")
        self._post(msg)

    # ------------------------------------------------------------------
    # RDDP-RPC support (Section 3.2): tagged pre-posted user buffers
    # ------------------------------------------------------------------

    def rddp_post_tag(self, xid: int, buffer: Buffer) -> Generator:
        """Associate an RPC transaction number with a target buffer so the
        NIC can header-split the matching response (per-I/O NIC
        interaction — one doorbell)."""
        yield from self._doorbell()
        self._rddp_tags[xid] = buffer

    def rddp_cancel_tag(self, xid: int) -> None:
        self._rddp_tags.pop(xid, None)

    # ------------------------------------------------------------------
    # RDMA / ORDMA (host-facing, initiator side)
    # ------------------------------------------------------------------

    def rdma_put(self, dst: str, remote_addr: int, nbytes: int,
                 data: Any = None, capability: Optional[bytes] = None,
                 optimistic: bool = False, span=None) -> Generator:
        """Remote write. Yields until the remote NIC acknowledges.

        Optimistic puts may raise :class:`RemoteAccessFault` at the yield
        point; plain puts on registered memory fault only on stack bugs.
        """
        done = Event(self.sim)
        meta: Dict[str, Any] = {"addr": remote_addr,
                                "capability": capability,
                                "optimistic": optimistic}
        if span is not None:
            meta["_span"] = span
        msg = Message(MsgKind.RDMA_PUT, self.name, dst, nbytes, data=data,
                      meta=meta)
        self._pending_rdma[msg.msg_id] = {"event": done, "kind": "put"}
        self.stats.incr("rdma_put")
        if self.sim.tracer is not None:
            self.sim.tracer.emit(self.name, "rdma-put", dst=dst,
                                 addr=remote_addr, bytes=nbytes,
                                 msg=msg.msg_id, optimistic=optimistic)
        yield from self._doorbell()
        if span is not None:
            span.mark(self.name, "nic.doorbell", op="rdma-put",
                      bytes=nbytes)
        self._post(msg)
        if self.rdma_timeout_us is None:
            result = yield done
        else:
            result = yield from self._await_rdma(msg.msg_id, done, "put")
        if span is not None:
            span.mark(self.name, "rdma.ack")
        return result

    def rdma_get(self, dst: str, remote_addr: int, nbytes: int,
                 local_buffer: Optional[Buffer] = None,
                 capability: Optional[bytes] = None,
                 optimistic: bool = False, span=None) -> Generator:
        """Remote read. Yields until the data lands in ``local_buffer``;
        returns the payload object. May raise :class:`RemoteAccessFault`."""
        done = Event(self.sim)
        meta: Dict[str, Any] = {"addr": remote_addr, "nbytes": nbytes,
                                "capability": capability,
                                "optimistic": optimistic}
        if span is not None:
            meta["_span"] = span
        msg = Message(MsgKind.RDMA_GET_REQ, self.name, dst, 0, meta=meta)
        self._pending_rdma[msg.msg_id] = {
            "event": done, "kind": "get", "buffer": local_buffer,
        }
        self.stats.incr("rdma_get")
        if self.sim.tracer is not None:
            self.sim.tracer.emit(self.name, "rdma-get", dst=dst,
                                 addr=remote_addr, bytes=nbytes,
                                 msg=msg.msg_id, optimistic=optimistic)
        yield from self._doorbell()
        if span is not None:
            span.mark(self.name, "nic.doorbell", op="rdma-get",
                      bytes=nbytes)
        self._post(msg)
        if self.rdma_timeout_us is None:
            data = yield done
        else:
            data = yield from self._await_rdma(msg.msg_id, done, "get")
        return data

    def _await_rdma(self, msg_id: int, done: Event, op: str) -> Generator:
        """Completion wait with a recovery deadline (fault injection).

        A remote NIC fault still raises at the yield point; a lost
        request or response instead surfaces as a TIMEOUT-reason
        :class:`RemoteAccessFault` once the deadline passes, after which
        late completions for this operation are ignored.
        """
        deadline = self.sim.timeout(self.rdma_timeout_us)
        yield self.sim.any_of([done, deadline])
        if not done.triggered:
            self._pending_rdma.pop(msg_id, None)
            self.stats.incr("rdma_timeout")
            trace_emit(self.sim, self.name, "rdma-timeout", op=op,
                       msg=msg_id)
            raise RemoteAccessFault(
                FaultReason.TIMEOUT, f"{op} msg={msg_id} unacknowledged "
                f"after {self.rdma_timeout_us}us")
        return done.value

    # ------------------------------------------------------------------
    # Transmit engine (NIC context)
    # ------------------------------------------------------------------

    def _post(self, msg: Message) -> None:
        """Send a message the host posted: the NIC fetches its descriptor,
        and the send task starts when the fetch completes."""
        self.sim.spawn_after(self.pci.descriptor_fetch(),
                             self._tx(msg, from_host=True))

    def _tx(self, msg: Message, from_host: bool) -> Generator:
        mtu, header = self._wire_format(msg)
        for frame in fragment(msg, mtu, header):
            frame_cost = self.params.nic.tx_frame_us
            if (self.params.net.emulate_gm_get_bug
                    and msg.kind is MsgKind.RDMA_GET_RESP
                    and msg.size > 32 * 1024):
                # Fig. 7's "performance bug in GM get": large gets stall the
                # firmware per fragment on the responding NIC, capping get
                # throughput below the link rate.
                frame_cost += self.params.net.gm_get_bug_stall_us
            yield self.firmware.hold(frame_cost)
            if from_host and frame.payload_bytes > 0:
                yield self.pci.dma(frame.payload_bytes)
                self.stats.incr("dma_bytes", frame.payload_bytes)
            self.switch.transmit(self.name, frame)

    def _wire_format(self, msg: Message):
        if msg.kind is MsgKind.ETH:
            return (self.params.net.ip_fragment_payload,
                    self.params.net.eth_header_bytes)
        return self.params.net.gm_mtu, self.params.net.gm_header_bytes

    # ------------------------------------------------------------------
    # Receive engine (NIC context)
    # ------------------------------------------------------------------

    def _deliver(self, frame: Frame) -> None:
        self.sim.spawn(self._rx_frame(frame))

    def _rx_frame(self, frame: Frame) -> Generator:
        yield self.firmware.hold(self.params.nic.rx_frame_us)
        kind = frame.message.kind
        if kind is MsgKind.GM_SEND:
            yield from self._rx_gm(frame)
        elif kind is MsgKind.ETH:
            yield from self._rx_eth(frame)
        elif kind is MsgKind.RDMA_PUT:
            yield from self._rx_put(frame)
        elif kind is MsgKind.RDMA_PUT_ACK:
            self._complete_rdma(frame.message.meta["for"], ok=True)
        elif kind is MsgKind.RDMA_GET_REQ:
            yield from self._rx_get_request(frame)
        elif kind is MsgKind.RDMA_GET_RESP:
            yield from self._rx_get_response(frame)
        elif kind is MsgKind.RDMA_FAULT:
            meta = frame.message.meta
            self._complete_rdma(meta["for"], ok=False,
                                fault=RemoteAccessFault(meta["reason"]))
        else:  # pragma: no cover - exhaustive over MsgKind
            raise ProtectionError(f"unhandled frame kind {kind}")

    def _rx_gm(self, frame: Frame) -> Generator:
        msg = frame.message
        if frame.payload_bytes > 0:
            yield self.pci.dma(frame.payload_bytes)
            self.stats.incr("dma_bytes", frame.payload_bytes)
        if not self._reassembler.add(frame):
            return
        queue = self._recv_buffers.get(msg.port)
        if queue is None:
            raise ProtectionError(
                f"{self.name}: message for unopened port {msg.port}")
        if not queue:
            self.stats.incr("gm_recv_drop")
            return  # GM drops sends with no posted receive
        buffer = queue.popleft()
        if buffer.size < msg.size:
            raise ProtectionError(
                f"{self.name}: posted buffer too small on port {msg.port}: "
                f"{buffer.size} < {msg.size}")
        buffer.data = msg.data
        self.stats.incr("gm_recv")
        self._recv_cqs[msg.port].push(
            Completion(MsgKind.GM_SEND, message=msg, data=msg.data,
                       context=buffer))

    def _rx_eth(self, frame: Frame) -> Generator:
        if frame.payload_bytes > 0:
            yield self.pci.dma(frame.payload_bytes)
            self.stats.incr("dma_bytes", frame.payload_bytes)
        msg = self._reassembler.add(frame)
        # The Ethernet driver interrupts per fragment group; the IP stack
        # charges its own per-fragment costs in the handler.
        if self._eth_handler is None:
            raise ProtectionError(f"{self.name}: no Ethernet handler bound")
        if msg is None:
            return
        # RDDP-RPC header splitting (Section 3.2), here only: RDDP-RPC
        # rides UDP. A response whose RPC xid matches a pre-posted tag has
        # its payload placed directly in the tagged user buffer; the host
        # stack then sees headers only (meta["rddp_split_done"]).
        xid = msg.meta.get("rddp_xid")
        if xid is not None and xid in self._rddp_tags:
            target = self._rddp_tags.pop(xid)
            payload = msg.meta.get("rddp_payload")
            if payload is not None and msg.meta.get("rddp_bytes", 0) > 0:
                target.data = payload
            msg.meta["rddp_split_done"] = True
            self.stats.incr("rddp_split")
        elif msg.meta.get("rddp_untagged") and \
                msg.meta.get("rddp_bytes", 0) > 0:
            # Untagged RDDP-RPC (Section 2.2): no pre-posted tag — the NIC
            # header-splits the payload into intermediate *page-aligned*
            # kernel buffers; the host later re-maps those pages into the
            # (page-aligned) target instead of copying.
            msg.meta["rddp_untagged_done"] = True
            self.stats.incr("rddp_untagged_split")
        self.stats.incr("eth_recv")
        self._eth_handler(msg)

    # -- RDMA target side ------------------------------------------------

    def _check_optimistic(self, msg: Message, nbytes: int,
                          **detail: Any) -> Generator:
        """The target's check of one optimistic access (Section 4.1).

        An injected rejection, else the TPT's capability and residency
        check, else the capability-verify time. A fault is counted,
        traced (``ordma-fault``, with ``detail`` last), marked on the
        request span and answered with ``RDMA_FAULT``. Returns the
        :class:`FaultReason`, or ``None`` when the access may proceed.
        """
        meta = msg.meta
        if self.faults is not None and self.faults.ordma_reject():
            fault = FaultReason.INJECTED
        else:
            fault = self.tpt.check_access(meta["addr"], nbytes,
                                          meta.get("capability"))
        if fault is None:
            if self.tpt.use_capabilities:
                yield self.sim.timeout(self.params.nic.capability_verify_us)
            return None
        self.stats.incr("ordma_fault")
        trace_emit(self.sim, self.name, "ordma-fault", initiator=msg.src,
                   reason=fault.value, msg=msg.msg_id, **detail)
        span = meta.get("_span")
        if span is not None:
            span.mark(self.name, "ordma.reject", reason=fault.value)
        self._nic_send(Message(MsgKind.RDMA_FAULT, self.name, msg.src, 0,
                               meta={"for": msg.msg_id, "reason": fault}))
        return fault

    def _tlb_walk(self, addr: int, nbytes: int,
                  optimistic: bool) -> Generator:
        """Ensure translations for the access are loaded; charge misses."""
        hit = self.tpt.translate(addr)
        if hit is None:  # pragma: no cover - callers validate first
            raise ProtectionError(f"{self.name}: walk of invalid {addr:#x}")
        seg, _ = hit
        offset = addr - seg.base
        for page in seg.buffer.pages_in_range(offset, nbytes):
            if self.tlb.lookup(page):
                continue
            if optimistic:
                # Host loads the entry by PIO after an interrupt
                # (Section 4.1's uniprocessor synchronization design).
                yield from self.cpu.interrupt(
                    handler_us=0.0,
                    coalesce_window_us=self.params.nic.interrupt_coalesce_us)
                yield self.sim.timeout(self.params.nic.tlb_miss_ordma_us)
            else:
                yield self.sim.timeout(self.params.nic.tlb_miss_us)
            self.tlb.load(page)
        return seg

    def _rx_put(self, frame: Frame) -> Generator:
        msg = frame.message
        meta = msg.meta
        first = frame.index == 0
        if first:
            if meta.get("optimistic"):
                fault = yield from self._check_optimistic(msg, msg.size,
                                                          op="put")
                if fault is not None:
                    meta["faulted"] = fault
            elif self.tpt.translate(meta["addr"]) is None:
                raise ProtectionError(
                    f"{self.name}: plain RDMA put to unregistered "
                    f"{meta['addr']:#x}")
        if meta.get("faulted"):
            return  # sink remaining frames of a faulted put
        if frame.payload_bytes > 0:
            yield self.pci.dma(frame.payload_bytes)
            self.stats.incr("dma_bytes", frame.payload_bytes)
        if not self._reassembler.add(frame):
            return
        seg = yield from self._tlb_walk(meta["addr"], msg.size,
                                        meta.get("optimistic", False))
        if msg.data is not None:
            seg.buffer.data = msg.data
        self.stats.incr("rdma_put_served")
        span = meta.get("_span")
        if span is not None:
            span.mark(self.name, "rdma.data", bytes=msg.size)
        # Ack turnaround in the target firmware (latency only).
        yield self.sim.timeout(self.params.nic.put_ack_delay_us)
        self._nic_send(Message(MsgKind.RDMA_PUT_ACK, self.name, msg.src, 0,
                               meta={"for": msg.msg_id}))

    def _rx_get_request(self, frame: Frame) -> Generator:
        msg = frame.message
        meta = msg.meta
        nbytes = meta["nbytes"]
        optimistic = meta.get("optimistic", False)
        if optimistic:
            fault = yield from self._check_optimistic(msg, nbytes)
            if fault is not None:
                return
        elif self.tpt.translate(meta["addr"]) is None:
            raise ProtectionError(
                f"{self.name}: plain RDMA get from unregistered "
                f"{meta['addr']:#x}")
        seg = yield from self._tlb_walk(meta["addr"], nbytes, optimistic)
        # GM get service has two cost components: a firmware occupancy
        # (serializes concurrent gets; bounds get throughput below the raw
        # link rate) and a rendezvous turnaround that is pure latency.
        yield self.firmware.hold(self.params.nic.get_occupancy_us)
        yield self.sim.timeout(self.params.nic.get_turnaround_us)
        self.stats.incr("rdma_get_served")
        if self.sim.tracer is not None:
            self.sim.tracer.emit(self.name, "get-served", initiator=msg.src,
                                 bytes=nbytes, msg=msg.msg_id)
        span = meta.get("_span")
        if span is not None:
            span.mark(self.name, "ordma.server", bytes=nbytes)
        data = seg.buffer.data
        if optimistic and self.faults is not None \
                and self.faults.ordma_corrupt():
            # Silent corruption on the direct path: the get completes
            # normally, the payload is wrong, and no host CPU ever sees
            # it — only a client-side checksum can tell (Section 5's
            # offloaded checksums, finally asked to earn their keep).
            data = corrupt_payload(data, "ordma")
        resp = Message(MsgKind.RDMA_GET_RESP, self.name, msg.src, nbytes,
                       data=data, meta={"for": msg.msg_id})
        self.sim.spawn(self._tx(resp, from_host=True))

    def _rx_get_response(self, frame: Frame) -> Generator:
        msg = frame.message
        if frame.payload_bytes > 0:
            yield self.pci.dma(frame.payload_bytes)
        if not self._reassembler.add(frame):
            return
        ctx = self._pending_rdma.get(msg.meta["for"])
        if ctx is not None and ctx.get("buffer") is not None:
            ctx["buffer"].data = msg.data
        self._complete_rdma(msg.meta["for"], ok=True, data=msg.data)

    def _complete_rdma(self, msg_id: int, ok: bool, data: Any = None,
                       fault: Optional[RemoteAccessFault] = None) -> None:
        ctx = self._pending_rdma.pop(msg_id, None)
        if ctx is None:
            return  # duplicate ack/fault
        if ok:
            ctx["event"].succeed(data)
        else:
            ctx["event"].fail(fault)

    def _nic_send(self, msg: Message) -> None:
        """Transmit a NIC-originated control message (ack/fault)."""
        self.sim.spawn(self._tx(msg, from_host=False))
