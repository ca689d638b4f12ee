"""Transactional RPC over any messaging transport.

RPC is the paper's baseline control path (Section 2.1): requests carry a
transaction number (xid), the server dispatches a handler, and the response
either in-lines the data payload, triggers a server-initiated RDMA, or is
header-split by the NIC against a pre-posted tagged buffer (RDDP-RPC).

The RPC transaction number doubles as the RDDP-RPC buffer tag, exactly as
in Section 2.2: ``call(..., rddp_buffer=...)`` pins and tags the buffer,
sends the xid, and the NIC places the matching response payload directly.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..fs.disk import DiskError
from ..hw.host import Host
from ..hw.memory import Buffer
from ..hw.tpt import RemoteAccessFault
from ..integrity.checksum import IntegrityError
from ..net.packet import Message
from ..sim import Counter, Event, rate_probe, trace_emit

#: Marshalled size of request/response headers on the wire.
RPC_HEADER_BYTES = 128

#: Completed-xid memory on the client (duplicate-reply classification)
#: and reply memory on the server (idempotent retransmission).
DUP_CACHE_CAPACITY = 512

#: Faults a handler may legitimately surface under fault injection; the
#: server converts them into ``rpc_error`` replies instead of dying.
_HANDLER_FAULTS = (DiskError, RemoteAccessFault)

#: Duplicate-request-cache sentinel: the original is still being served.
_IN_PROGRESS = object()


class RPCError(RuntimeError):
    """Protocol-level RPC failure (unknown procedure, bad reply)."""


class RPCTimeoutError(RPCError):
    """No reply within the retry policy's full retransmission budget."""


class RetryPolicy:
    """Client-side timeout/retransmission policy (fault-injection runs).

    Retransmissions reuse the original xid, making them idempotent
    against the server's duplicate request cache; backoff is capped
    exponential with optional seeded jitter (``delay = base *
    factor^(attempt-1)``, clamped to ``cap``, then scaled by ``1 ±
    jitter``). Pass an ``rng`` from a :class:`repro.sim.RandomStreams`
    stream to keep jitter reproducible.
    """

    __slots__ = ("timeout_us", "max_retries", "backoff_base_us",
                 "backoff_factor", "backoff_cap_us", "jitter", "rng")

    def __init__(self, timeout_us: float = 4000.0, max_retries: int = 8,
                 backoff_base_us: float = 200.0,
                 backoff_factor: float = 2.0,
                 backoff_cap_us: float = 4000.0, jitter: float = 0.0,
                 rng: Optional[random.Random] = None):
        if timeout_us <= 0:
            raise ValueError(f"timeout must be positive: {timeout_us}")
        if max_retries < 0:
            raise ValueError(f"negative retry budget: {max_retries}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {jitter}")
        self.timeout_us = timeout_us
        self.max_retries = max_retries
        self.backoff_base_us = backoff_base_us
        self.backoff_factor = backoff_factor
        self.backoff_cap_us = backoff_cap_us
        self.jitter = jitter
        self.rng = rng

    def backoff_us(self, attempt: int) -> float:
        """Backoff before retransmission ``attempt`` (1-based)."""
        delay = self.backoff_base_us * self.backoff_factor ** (attempt - 1)
        delay = min(delay, self.backoff_cap_us)
        if self.jitter and self.rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        return delay


class RPCRequest:
    """Server-side view of one incoming call."""

    __slots__ = ("message", "proc", "args", "xid", "client", "span")

    def __init__(self, message: Message):
        self.message = message
        meta = message.meta
        self.proc: str = meta["rpc_proc"]
        self.args: Dict[str, Any] = meta.get("rpc_args", {})
        self.xid: int = meta["rpc_xid"]
        self.client: str = message.src
        #: The request's trace span, when the client is tracing.
        self.span = meta.get("_span")


class RPCReply:
    """What a handler returns: optional inline payload + response meta."""

    __slots__ = ("inline_bytes", "data", "meta")

    def __init__(self, inline_bytes: int = 0, data: Any = None,
                 meta: Optional[Dict[str, Any]] = None):
        if inline_bytes < 0:
            raise ValueError(f"negative inline payload: {inline_bytes}")
        self.inline_bytes = inline_bytes
        self.data = data
        self.meta = meta or {}


#: A handler is a generator taking (server, request) and returning RPCReply.
Handler = Callable[["RPCServer", RPCRequest], Generator]


class RPCClient:
    """Issues calls over a transport; supports many outstanding calls."""

    def __init__(self, host: Host, transport, server: str,
                 kernel: bool = False):
        """``kernel=True`` charges the kernel RPC layer's extra per-call
        cost (the NFS-family clients; Section 5.1's NFS hybrid burns more
        CPU per RPC than the user-level DAFS client)."""
        # Per-instance xid counter: xids are matched only within this
        # client's pending/recent maps and its own NIC tags, and a
        # process-global counter would leak call counts between runs,
        # breaking same-seed byte-identical trace exports.
        self._xids = itertools.count(1)
        self.host = host
        self.transport = transport
        self.server = server
        self.kernel = kernel
        self.stats = Counter()
        self._pending: Dict[int, Event] = {}
        #: Retransmission policy; ``None`` (the default) waits forever,
        #: which is exact for a lossless fabric and costs no timer events.
        self.retry: Optional[RetryPolicy] = None
        #: Backoff policy for server admission rejections (the scheduler's
        #: bounded accept queue shedding load). ``None`` (the default)
        #: surfaces a rejection as an immediate :class:`RPCError`; servers
        #: without a scheduler never reject, so nothing changes for them.
        self.reject_retry: Optional[RetryPolicy] = None
        #: Recently completed xids, to tell a retransmission's duplicate
        #: reply from a genuinely unknown (orphan) one.
        self._recent: "OrderedDict[int, bool]" = OrderedDict()
        host.sim.spawn(self._recv_loop())

    def gauges(self) -> Dict[str, Callable[[], float]]:
        """Telemetry probes for a :class:`~repro.sim.TimeSeriesSampler`:
        outstanding calls awaiting replies and the windowed call rate."""
        return {
            "outstanding": lambda: float(len(self._pending)),
            "calls_s": rate_probe(
                self.host.sim, lambda: float(self.stats.get("calls")),
                scale=1e6),
        }

    def call(self, proc: str, args: Optional[Dict[str, Any]] = None,
             req_bytes: int = RPC_HEADER_BYTES,
             rddp_buffer: Optional[Buffer] = None,
             rddp_untagged: bool = False, span=None) -> Generator:
        """Issue one RPC; yields until the response arrives.

        ``rddp_buffer`` activates RDDP-RPC: the buffer is pinned and tagged
        with this call's xid so the NIC header-splits the response payload
        straight into it (registration is on-the-fly, per I/O, as kernel
        clients must — Section 3). ``rddp_untagged`` instead asks the NIC
        to split the payload into intermediate page-aligned buffers with
        no pre-posting; the caller re-maps pages afterwards (Section 2.2's
        untagged variant).

        ``span`` (a :class:`repro.sim.Span` or ``None``) rides the request
        to the server, collecting stage boundaries at every hop.
        """
        cpu = self.host.cpu
        proto = self.host.params.proto
        xid = next(self._xids)
        yield from cpu.execute(proto.rpc_marshal_us, category="rpc")
        if self.kernel:
            yield from cpu.execute(proto.kernel_rpc_extra_us, category="rpc")
        meta: Dict[str, Any] = {
            "rpc": "req", "rpc_proc": proc, "rpc_xid": xid,
            "rpc_args": args or {},
        }
        if rddp_buffer is not None:
            host_p = self.host.params.host
            yield from cpu.execute(
                rddp_buffer.page_count * host_p.register_page_us,
                category="register")
            rddp_buffer.pin()
            yield from self.host.nic.rddp_post_tag(xid, rddp_buffer)
            meta["rddp_xid"] = xid
        if rddp_untagged:
            meta["rddp_untagged"] = True
        self.stats.incr("calls")
        trace_emit(self.host.sim, self.host.name, "rpc-call", proc=proc,
                   xid=xid, server=self.server)
        if span is not None:
            span.mark(self.host.name, "rpc.marshal", proc=proc, xid=xid)
            meta["_span"] = span
        rejects = 0
        while True:
            done = Event(self.host.sim)
            self._pending[xid] = done
            yield from self.transport.send(self.server, req_bytes,
                                           meta=meta)
            if span is not None and rejects == 0:
                span.mark(self.host.name, "nic.tx")
            if self.retry is None:
                response: Message = yield done
            else:
                response = yield from self._await_with_retry(
                    xid, done, proc, req_bytes, meta, span)
            if not response.meta.get("rpc_rejected"):
                break
            # The server's admission scheduler shed this call (bounded
            # accept queue): back off and retransmit under the same xid.
            rejects += 1
            self.stats.incr("rejected_calls")
            policy = self.reject_retry
            trace_emit(self.host.sim, self.host.name, "rpc-rejected",
                       proc=proc, xid=xid, attempt=rejects)
            if policy is None or rejects > policy.max_retries:
                self.stats.incr("reject_failures")
                raise RPCError(
                    f"{proc} xid={xid}: server admission rejected "
                    f"{rejects} time(s)")
            delay = policy.backoff_us(rejects)
            if span is not None:
                span.mark(self.host.name, "rpc.rejected", attempt=rejects,
                          backoff_us=round(delay, 3))
            if delay > 0.0:
                yield self.host.sim.timeout(delay)
        if span is not None:
            span.mark(self.host.name, "net.reply")
        yield from cpu.execute(proto.rpc_marshal_us, category="rpc")
        if self.kernel:
            yield from cpu.execute(proto.kernel_rpc_extra_us, category="rpc")
        if rddp_buffer is not None:
            host_p = self.host.params.host
            rddp_buffer.unpin()
            self.host.nic.rddp_cancel_tag(xid)
            yield from cpu.execute(
                rddp_buffer.page_count * host_p.deregister_page_us,
                category="register")
        if span is not None:
            span.mark(self.host.name, "rpc.unmarshal")
        if "rpc_error" in response.meta:
            message = response.meta["rpc_error"]
            if message.startswith("EINTEGRITY"):
                # The server detected checksum-verified corruption it
                # could not repair: a typed error, so resilience layers
                # can distinguish "data is bad here" (try a replica)
                # from "server is unreachable" (mark it down).
                raise IntegrityError(message)
            raise RPCError(message)
        return response

    def _await_with_retry(self, xid: int, done: Event, proc: str,
                          req_bytes: int, meta: Dict[str, Any],
                          span) -> Generator:
        """Wait for the reply, retransmitting under the same xid.

        The pending event is shared across attempts, so whichever
        transmission's reply arrives first completes the call; the
        server's duplicate request cache absorbs the rest. Raises
        :class:`RPCTimeoutError` once the retry budget is exhausted.
        """
        policy = self.retry
        sim = self.host.sim
        attempt = 0
        while True:
            timer = sim.timeout(policy.timeout_us)
            yield sim.any_of([done, timer])
            if done.triggered:
                return done.value
            attempt += 1
            if attempt > policy.max_retries:
                self._pending.pop(xid, None)
                self.stats.incr("rpc_timeouts")
                trace_emit(sim, self.host.name, "rpc-timeout", proc=proc,
                           xid=xid, attempts=attempt)
                raise RPCTimeoutError(
                    f"{proc} xid={xid}: no reply after "
                    f"{policy.max_retries} retransmissions")
            delay = policy.backoff_us(attempt)
            self.stats.incr("retransmits")
            trace_emit(sim, self.host.name, "rpc-retransmit", proc=proc,
                       xid=xid, attempt=attempt,
                       backoff_us=round(delay, 3))
            if span is not None:
                span.mark(self.host.name, "rpc.timeout", xid=xid,
                          attempt=attempt)
            if delay > 0.0:
                yield sim.timeout(delay)
                if span is not None:
                    span.mark(self.host.name, "rpc.backoff",
                              us=round(delay, 3))
            yield from self.transport.send(
                self.server, req_bytes, meta=dict(meta, rpc_retry=attempt))
            if span is not None:
                span.mark(self.host.name, "rpc.retransmit",
                          attempt=attempt)

    def _recv_loop(self) -> Generator:
        while True:
            msg = yield from self.transport.recv()
            xid = msg.meta.get("rpc_xid")
            pending = self._pending.pop(xid, None)
            if pending is None:
                # Late duplicate of a completed call vs. truly unknown.
                if xid in self._recent:
                    self.stats.incr("duplicate_replies")
                else:
                    self.stats.incr("orphan_replies")
                continue
            self._recent[xid] = True
            while len(self._recent) > DUP_CACHE_CAPACITY:
                self._recent.popitem(last=False)
            self.stats.incr("replies")
            pending.succeed(msg)


class RPCServer:
    """Dispatches registered handlers; one concurrent task per request."""

    def __init__(self, host: Host, transport, name: str = "rpc-server"):
        self.host = host
        self.transport = transport
        self.name = name
        self.stats = Counter()
        self._handlers: Dict[str, Handler] = {}
        self._started = False
        #: Requests currently inside :meth:`_serve` (telemetry gauge).
        self.inflight = 0
        #: While True (crashed), arriving requests are silently dropped.
        self.paused = False
        #: Duck-typed crash dice (see repro.faults.ServerFaults); ``None``
        #: means requests are never crash-tested.
        self.faults = None
        #: Called once per crash, before the restart timer is set — the
        #: injector hooks server-state loss (file cache) here.
        self.on_crash: Optional[Callable[[], None]] = None
        #: Duplicate request cache: (client, xid) -> reply, so client
        #: retransmissions are idempotent. In-progress entries drop the
        #: duplicate; completed ones replay the recorded reply (writes
        #: must not re-execute: the version bump would change contents).
        self._dup_cache: "OrderedDict[Tuple[str, int], Any]" = OrderedDict()
        #: Admission/request scheduler (see
        #: :class:`repro.nas.server.sched.RequestScheduler`). ``None``
        #: keeps the seed behavior: one concurrent task per arrival,
        #: unbounded, never rejecting.
        self.scheduler = None

    def crash(self, downtime_us: float) -> bool:
        """Crash the server process: drop requests for ``downtime_us``.

        Returns False if already down. State hooked to ``on_crash`` (the
        file cache) is lost; the duplicate request cache is too — it
        lived in server memory.
        """
        if self.paused:
            return False
        self.paused = True
        self.stats.incr("crashes")
        self._dup_cache.clear()
        if self.scheduler is not None:
            # The accept queue lived in server memory too; clients
            # recover the dropped requests by retransmission.
            self.scheduler.drop_all()
        if self.on_crash is not None:
            self.on_crash()
        self.host.sim.call_at(self.host.sim.now + downtime_us,
                              self._restart)
        return True

    def _restart(self) -> None:
        self.paused = False
        self.stats.incr("restarts")

    def register(self, proc: str, handler: Handler) -> None:
        if proc in self._handlers:
            raise RPCError(f"handler for {proc!r} already registered")
        self._handlers[proc] = handler

    def attach_scheduler(self, scheduler) -> None:
        """Route arrivals through an admission/request scheduler.

        With a scheduler attached, incoming requests join its bounded
        accept queue (or are explicitly rejected when it is full) and at
        most ``scheduler.service_threads`` handlers run concurrently,
        dispatched in the scheduler's policy order.
        """
        if self.scheduler is not None:
            raise RPCError("scheduler already attached")
        self.scheduler = scheduler

    def start(self) -> None:
        if self._started:
            raise RPCError("server already started")
        self._started = True
        self.host.sim.spawn(self._loop())

    def _loop(self) -> Generator:
        while True:
            msg = yield from self.transport.recv()
            if self.faults is not None:
                # The arriving request itself may trigger the crash; it
                # is then dropped along with everything while down.
                self.faults.maybe_crash(self)
            if self.paused:
                self.stats.incr("dropped_while_down")
                continue
            sched = self.scheduler
            if sched is None:
                self.host.sim.spawn(self._serve(msg))
            elif sched.admit(msg):
                self._dispatch()
            else:
                self.host.sim.spawn(self._send_rejection(msg))

    def gauges(self) -> Dict[str, Callable[[], float]]:
        """Telemetry probes for a :class:`~repro.sim.TimeSeriesSampler`:
        requests currently being served and the windowed arrival rate."""
        return {
            "inflight": lambda: float(self.inflight),
            "requests_s": rate_probe(
                self.host.sim, lambda: float(self.stats.get("requests")),
                scale=1e6),
        }

    def _dispatch(self) -> None:
        """Start queued requests while service threads are free."""
        sched = self.scheduler
        while sched.active < sched.service_threads:
            entry = sched.pop()
            if entry is None:
                return
            sched.note_active(+1)
            self.host.sim.spawn(self._serve_scheduled(entry))

    def _serve_scheduled(self, entry) -> Generator:
        """One service thread's turn: run the handler, free the slot,
        and pull the next queued request in policy order."""
        msg, enqueued = entry
        span = msg.meta.get("_span")
        if span is not None:
            span.mark(self.host.name, "sched.queue",
                      wait_us=round(self.host.sim.now - enqueued, 3))
        try:
            yield from self._serve(msg)
        finally:
            sched = self.scheduler
            sched.note_active(-1)
            sched.stats.incr("completed")
            self._dispatch()

    def _send_rejection(self, msg: Message) -> Generator:
        """Explicit load shedding: a header-only busy reply.

        The client's :attr:`RPCClient.reject_retry` policy turns this
        into a seeded backoff + retransmission under the same xid; the
        handler never ran, so nothing enters the duplicate request cache
        and the retransmission executes normally once admitted.
        """
        request = RPCRequest(msg)
        self.stats.incr("rejections_sent")
        trace_emit(self.host.sim, self.host.name, "rpc-reject",
                   proc=request.proc, xid=request.xid,
                   client=request.client)
        if request.span is not None:
            request.span.mark(self.host.name, "sched.reject",
                              qdepth=len(self.scheduler))
        cost = self.host.params.sched.reject_reply_us
        if cost > 0.0:
            yield from self.host.cpu.execute(cost, category="rpc")
        yield from self.transport.send(
            request.client, RPC_HEADER_BYTES,
            meta={"rpc": "resp", "rpc_xid": request.xid,
                  "rpc_rejected": True})

    def _serve(self, msg: Message) -> Generator:
        self.inflight += 1
        try:
            yield from self._serve_inner(msg)
        finally:
            self.inflight -= 1

    def _serve_inner(self, msg: Message) -> Generator:
        cpu = self.host.cpu
        proto = self.host.params.proto
        request = RPCRequest(msg)
        span = request.span
        if span is not None:
            span.mark(self.host.name, "net.request", proc=request.proc)
        self.stats.incr("requests")
        trace_emit(self.host.sim, self.host.name, "rpc-serve",
                   proc=request.proc, xid=request.xid,
                   client=request.client)
        self.stats.incr(f"proc:{request.proc}")
        yield from cpu.execute(proto.rpc_marshal_us, category="rpc")
        dup_key = (request.client, request.xid)
        cached = self._dup_cache.get(dup_key)
        if cached is _IN_PROGRESS:
            # Retransmission of a request still being served: drop it;
            # the original's reply is on its way.
            self.stats.incr("dup_dropped")
            return
        if cached is not None:
            # Retransmission of a completed request: replay the recorded
            # reply without re-executing the handler (idempotence).
            self.stats.incr("dup_replayed")
            resp_meta, resp_bytes, resp_data = cached
            yield from self.transport.send(request.client, resp_bytes,
                                           data=resp_data, meta=resp_meta)
            return
        self._dup_cache[dup_key] = _IN_PROGRESS
        handler = self._handlers.get(request.proc)
        if handler is None:
            reply = RPCReply(meta={"rpc_error": f"bad proc {request.proc!r}"})
        else:
            try:
                reply = yield from handler(self, request)
            except _HANDLER_FAULTS as exc:
                # Injected storage/RDMA faults surface as an error reply
                # (EIO to the client), not a dead server process.
                self.stats.incr("handler_faults")
                reply = RPCReply(meta={"rpc_error": f"server fault: {exc}"})
        yield from cpu.execute(proto.rpc_marshal_us, category="rpc")
        resp_meta = dict(reply.meta)
        resp_meta.update({"rpc": "resp", "rpc_xid": request.xid})
        if msg.meta.get("rddp_xid") is not None and reply.inline_bytes > 0:
            # RDDP-RPC: echo the tag; carry the payload in the response so
            # the client NIC can header-split it into the tagged buffer.
            resp_meta["rddp_xid"] = msg.meta["rddp_xid"]
            resp_meta["rddp_payload"] = reply.data
            resp_meta["rddp_bytes"] = reply.inline_bytes
        elif msg.meta.get("rddp_untagged") and reply.inline_bytes > 0:
            # Untagged variant: mark the response splittable so the client
            # NIC deposits the payload in page-aligned kernel buffers.
            resp_meta["rddp_untagged"] = True
            resp_meta["rddp_payload"] = reply.data
            resp_meta["rddp_bytes"] = reply.inline_bytes
        self._dup_cache[dup_key] = (
            resp_meta, RPC_HEADER_BYTES + reply.inline_bytes, reply.data)
        while len(self._dup_cache) > DUP_CACHE_CAPACITY:
            self._dup_cache.popitem(last=False)
        yield from self.transport.send(
            request.client, RPC_HEADER_BYTES + reply.inline_bytes,
            data=reply.data, meta=resp_meta)
        if span is not None:
            span.mark(self.host.name, "server.reply")
