"""File servers: NFS (UDP), DAFS (VI), and Optimistic DAFS.

One handler set serves all five client systems; what differs is the
transport, the reply path (inline copy, scatter/gather inline, or
server-initiated RDMA), and — for ODAFS — exporting cache blocks and
piggybacking remote references on read replies (Section 4.2).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ...fs.disk import Disk
from ...fs.files import FileSystem, block_payload
from ...hw.host import Host
from ...hw.nic import NotifyMode
from ...hw.tpt import RemoteAccessFault
from ...integrity.checksum import IntegrityError
from ...integrity.scrub import Scrubber
from ...integrity.store import ChecksumStore
from ...proto.messaging import GMEndpoint
from ...proto.rpc import RPCReply, RPCRequest, RPCServer
from ...proto.udp import UDPStack
from ...proto.vi import VIEndpoint
from ...sim import Counter, LatencyStats, rate_probe, trace_emit
from ..delegation import READ, DelegationTable
from .filecache import BlockKey, ServerBlock, ServerFileCache

#: Well-known service ports.
NFS_PORT = 2049
DAFS_PORT = 10

#: How a read's payload reaches the client (``args['mode']``).
READ_MODES = ("direct", "inline", "inline-mem")


class RequestRefused(Exception):
    """A request the server answers with an ``rpc_error`` reply (a missing
    file, a bad mode)."""


class BaseFileServer:
    """Shared handler logic over an abstract transport."""

    #: Whether read replies carry piggybacked remote references.
    piggyback_refs = False

    def __init__(self, host: Host, fs: FileSystem, disk: Disk,
                 cache: ServerFileCache, transport, name: str):
        self.host = host
        self.fs = fs
        self.disk = disk
        self.cache = cache
        self.name = name
        self.delegations = DelegationTable()
        self.stats = Counter()
        #: End-to-end integrity (``params.integrity``): checksums recorded
        #: at write, verified wherever a consumer reads — the server here
        #: for RPC reads, the client for ORDMA reads (via the checksum
        #: piggybacked on each :class:`RemoteRef`). ``None``/empty when
        #: integrity is off, so the default path pays nothing.
        self.checksums: Optional[ChecksumStore] = None
        self.integrity = Counter()
        self.repair_latency = LatencyStats(f"{name}.repair_us")
        self.scrubber: Optional[Scrubber] = None
        ip = host.params.integrity
        if ip.enabled:
            self.checksums = ChecksumStore(fs)
            cache.checksums = self.checksums
            if ip.scrub_interval_us > 0:
                self.scrubber = Scrubber(self)
        #: Retransmission budget for server-initiated RDMA writes when
        #: fault injection can time them out (0 = fail fast, the benign
        #: default; the injector's resilience layer raises it).
        self.rdma_put_retries = 0
        self.rpc = RPCServer(host, transport, name=name)
        for proc, handler in [
            ("open", self._h_open), ("close", self._h_close),
            ("read", self._h_read), ("write", self._h_write),
            ("getattr", self._h_getattr), ("create", self._h_create),
            ("remove", self._h_remove), ("lookup", self._h_lookup),
            ("read_batch", self._h_read_batch),
            ("get_refs", self._h_get_refs),
        ]:
            self.rpc.register(proc, self._serving(proc, handler))

    def start(self) -> None:
        self.rpc.start()

    # -- helpers -----------------------------------------------------------

    def _serving(self, proc: str, handler):
        """Wrap a handler with dispatch/reply trace events. A refused
        request, or a read whose block failed verification past repair,
        becomes the one ``rpc_error`` reply the client raises."""
        def wrapper(srv: RPCServer, request: RPCRequest) -> Generator:
            if self.host.sim.tracer is not None:
                trace_emit(self.host.sim, self.name, "srv-dispatch",
                           proc=proc, xid=request.xid,
                           client=request.client)
            try:
                reply = yield from handler(srv, request)
            except (RequestRefused, IntegrityError) as exc:
                reply = self._finish(
                    request, RPCReply(meta={"rpc_error": str(exc)}))
            if self.host.sim.tracer is not None:
                trace_emit(self.host.sim, self.name, "srv-reply",
                           proc=proc, xid=request.xid,
                           bytes=reply.inline_bytes)
            return reply
        return wrapper

    def warm(self, name: str) -> None:
        """Preload every block of ``name`` into the file cache (the
        'file warm in the server cache' setup of Section 5)."""
        for index in range(self.fs.block_count(name)):
            self.cache.insert((name, index),
                              self.fs.block_content(name, index))
            if self.checksums is not None:
                self.checksums.record((name, index))

    def _get_block(self, key: BlockKey, span=None) -> Generator:
        """Fetch one block through the cache, reading disk on a miss."""
        block = self.cache.lookup(key)
        if block is not None:
            return block
        if span is not None:
            span.mark(self.host.name, "server.cache", miss=True)
        proto = self.host.params.storage
        yield from self.host.cpu.execute(proto.disk_op_us, category="disk")
        yield from self.disk.read(self.cache.block_size)
        if span is not None:
            span.mark(self.host.name, "server.disk")
        data = self.fs.block_content(*key)
        if self.disk.faults is not None:
            # Bit rot lives on the read path: the platter access above
            # succeeded, but decayed media hands back wrong bytes.
            data = self.disk.faults.bitrot_payload(data)
        return self.cache.insert(key, data)

    def _charge_checksum(self) -> Generator:
        """Model the CPU cost of checksumming one cache block."""
        ip = self.host.params.integrity
        cost = ip.checksum_op_us + self.cache.block_size / ip.checksum_bw
        yield from self.host.cpu.execute(cost, category="integrity")

    def _get_block_verified(self, key: BlockKey, span=None) -> Generator:
        """:meth:`_get_block` plus read-path verification when integrity
        is enabled: a checksum mismatch runs the re-read/repair ladder and
        raises :class:`IntegrityError` only if that too is exhausted."""
        block = yield from self._get_block(key, span=span)
        if self.checksums is None:
            return block
        yield from self._charge_checksum()
        if self.checksums.verify(key, block.data):
            return block
        self.integrity.incr("detected")
        if span is not None:
            span.mark(self.host.name, "integrity.detect",
                      block=f"{key[0]}#{key[1]}")
        block = yield from self._repair_block(key, span=span)
        return block

    def _start_read(self, span) -> Generator:
        """The file-system operation every read starts with."""
        yield from self.host.cpu.execute(self.host.params.proto.fs_op_us,
                                         category="fs")
        if span is not None:
            span.mark(self.host.name, "server.fs")

    def _read_blocks(self, name: str, indices, span=None) -> Generator:
        """The verified blocks ``indices`` of ``name``, in order: the one
        block fetch of every read. A block past repair fails the read
        with :class:`IntegrityError`."""
        blocks: List[ServerBlock] = []
        try:
            for index in indices:
                block = yield from self._get_block_verified((name, index),
                                                            span=span)
                blocks.append(block)
        except IntegrityError:
            self.stats.incr("reads_failed_integrity")
            raise
        return blocks

    def _repair_block(self, key: BlockKey, span=None) -> Generator:
        """Bounded repair ladder for a block that failed verification:
        drop the bad copy and re-read from storage up to
        ``params.integrity.verify_retries`` times, verifying each fill.
        Exhaustion quarantines the block (evicted, nothing served) and
        raises ``IntegrityError`` with an ``EINTEGRITY`` message that the
        RPC layer surfaces as a typed error at the client."""
        t0 = self.host.sim.now
        retries = max(1, self.host.params.integrity.verify_retries)
        for _ in range(retries):
            self.cache.invalidate(key)
            block = yield from self._get_block(key, span=span)
            yield from self._charge_checksum()
            if self.checksums.verify(key, block.data):
                self.integrity.incr("repaired")
                self.repair_latency.record(self.host.sim.now - t0)
                if span is not None:
                    span.mark(self.host.name, "integrity.repair",
                              block=f"{key[0]}#{key[1]}")
                return block
        self.cache.invalidate(key)
        self.integrity.incr("quarantined")
        if span is not None:
            span.mark(self.host.name, "integrity.quarantine",
                      block=f"{key[0]}#{key[1]}")
        raise IntegrityError(
            f"EINTEGRITY {key[0]}#{key[1]}: "
            f"repair exhausted after {retries} re-read(s)")

    def integrity_gauges(self):
        """Telemetry probes: windowed detection/repair rates (events/s),
        read-path and scrubber combined."""
        sim = self.host.sim
        stats = self.integrity
        return {
            "detected_s": rate_probe(
                sim, lambda: float(stats.get("detected")
                                   + stats.get("scrub.detected")),
                scale=1e6),
            "repaired_s": rate_probe(
                sim, lambda: float(stats.get("repaired")
                                   + stats.get("scrub.repaired")),
                scale=1e6),
        }

    def _finish(self, request: RPCRequest, reply: RPCReply) -> RPCReply:
        """Attach piggybacked delegation recalls for this client."""
        recalls = self.delegations.take_recalls(request.client)
        if recalls:
            reply.meta["recall"] = recalls
        return reply

    def _rdma_completion(self) -> Generator:
        """Host-side handling of a local RDMA completion event."""
        yield from self.host.cpu.poll()

    def _put_direct(self, request: RPCRequest, target: Dict[str, Any],
                    nbytes: int, payload: Any, span=None) -> Generator:
        """Server-initiated RDMA write of a read's payload into the client
        buffer ``target`` names (``client_addr``, ``client_cap``), with
        bounded retransmission.

        The target is the client's plain registered buffer, so the only
        recoverable failure mode is an injected loss surfacing as an
        initiator timeout; retrying re-sends the whole transfer. Without
        this, one lost ack would kill the serving process and deadlock
        the client (its retransmissions would hit the in-progress entry
        of the duplicate request cache forever).
        """
        yield from self.host.cpu.execute(self.host.params.proto.rdma_issue_us,
                                         category="rdma")
        attempt = 0
        while True:
            try:
                yield from self.host.nic.rdma_put(
                    request.client, target["client_addr"], nbytes,
                    data=payload, capability=target.get("client_cap"),
                    span=span)
                break
            except RemoteAccessFault:
                attempt += 1
                if attempt > self.rdma_put_retries:
                    raise
                self.stats.incr("rdma_put_retries")
                if span is not None:
                    span.mark(self.host.name, "server.rdma-retry",
                              attempt=attempt)
        yield from self._rdma_completion()
        if span is not None:
            span.mark(self.host.name, "server.rdma", bytes=nbytes)

    # -- handlers -------------------------------------------------------------

    def _existing(self, request: RPCRequest) -> str:
        """The requested file's name; a missing file refuses the request
        with ``ENOENT``."""
        name = request.args["name"]
        if not self.fs.exists(name):
            raise RequestRefused(f"ENOENT {name}")
        return name

    def _h_open(self, srv: RPCServer, request: RPCRequest) -> Generator:
        proto = self.host.params.proto
        yield from self.host.cpu.execute(proto.fs_op_us, category="fs")
        name = self._existing(request)
        inode = self.fs.lookup(name)
        mode = request.args.get("mode", READ)
        delegated = self.delegations.grant(name, request.client, mode)
        self.stats.incr("opens")
        return self._finish(request, RPCReply(meta={
            "size": inode.size, "mtime": inode.mtime,
            "delegation": delegated,
        }))

    def _h_close(self, srv: RPCServer, request: RPCRequest) -> Generator:
        proto = self.host.params.proto
        yield from self.host.cpu.execute(proto.fs_op_us / 2, category="fs")
        self.delegations.release(request.args["name"], request.client)
        self.stats.incr("closes")
        return self._finish(request, RPCReply())

    def _h_getattr(self, srv: RPCServer, request: RPCRequest) -> Generator:
        proto = self.host.params.proto
        yield from self.host.cpu.execute(proto.fs_op_us / 2, category="fs")
        inode = self.fs.lookup(self._existing(request))
        self.stats.incr("getattrs")
        return self._finish(request, RPCReply(meta={
            "size": inode.size, "mtime": inode.mtime}))

    def _h_lookup(self, srv: RPCServer, request: RPCRequest) -> Generator:
        # Directory name lookups need real server processing and are not
        # ORDMA-able (Section 4.2.2) — always a full-cost RPC.
        proto = self.host.params.proto
        yield from self.host.cpu.execute(proto.fs_op_us, category="fs")
        self.stats.incr("lookups")
        self._existing(request)
        return self._finish(request, RPCReply(meta={"found": True}))

    def _h_create(self, srv: RPCServer, request: RPCRequest) -> Generator:
        proto = self.host.params.proto
        yield from self.host.cpu.execute(proto.fs_op_us, category="fs")
        self.fs.create(request.args["name"], request.args.get("size", 0))
        self.stats.incr("creates")
        return self._finish(request, RPCReply())

    def _h_remove(self, srv: RPCServer, request: RPCRequest) -> Generator:
        proto = self.host.params.proto
        yield from self.host.cpu.execute(proto.fs_op_us, category="fs")
        name = request.args["name"]
        for index in range(self.fs.block_count(name)):
            self.cache.invalidate((name, index))
        if self.checksums is not None:
            self.checksums.forget(name)
        self.fs.remove(name)
        self.stats.incr("removes")
        return self._finish(request, RPCReply())

    def _h_read(self, srv: RPCServer, request: RPCRequest) -> Generator:
        """Read: reply inline, inline from registered memory, or by
        server-initiated RDMA write ('direct'), per ``args['mode']``."""
        args = request.args
        name, offset, nbytes = args["name"], args["offset"], args["nbytes"]
        mode = args.get("mode", "inline")
        if mode not in READ_MODES:
            raise RequestRefused(f"bad mode {mode}")
        cpu = self.host.cpu
        span = request.span
        yield from self._start_read(span)
        indices = self.fs.blocks_in_range(name, offset, nbytes)
        blocks = yield from self._read_blocks(name, indices, span)
        if len(blocks) > 1:
            # Gathering additional cache blocks into one transfer.
            yield from cpu.execute(0.5 * (len(blocks) - 1), category="fs")
        if span is not None:
            span.mark(self.host.name, "server.cache", blocks=len(blocks))
        payload = block_payload([b.data for b in blocks])
        meta: Dict[str, Any] = {"size": nbytes}
        if self.piggyback_refs:
            refs = []
            for index, block in zip(indices, blocks):
                ref = self.cache.ref_for(block)
                if ref is not None:
                    refs.append((index, ref))
            if refs:
                meta["refs"] = refs
        self.stats.incr("reads")
        self.stats.incr("read_bytes", nbytes)
        if mode == "direct":
            yield from self._put_direct(request, args, nbytes, payload, span)
            self.stats.incr("reads_direct")
            return self._finish(request, RPCReply(meta=meta))
        if mode == "inline":
            # Serving inline from the file cache copies the payload into
            # the communication buffer (the Table 3 'in cache' case) —
            # unless the client asked for scatter/gather DMA straight from
            # the cache pages (the pre-posting reply path).
            if not args.get("sg"):
                yield from cpu.copy(nbytes, cached=False)
                if span is not None:
                    span.mark(self.host.name, "server.copy", bytes=nbytes)
            self.stats.incr("reads_inline")
            return self._finish(request,
                                RPCReply(inline_bytes=nbytes, data=payload,
                                         meta=meta))
        # 'inline-mem': the payload already resides in registered
        # communication memory (the Table 3 'in mem.' case): no copy.
        self.stats.incr("reads_inline_mem")
        return self._finish(request,
                            RPCReply(inline_bytes=nbytes, data=payload,
                                     meta=meta))

    def _h_get_refs(self, srv: RPCServer, request: RPCRequest) -> Generator:
        """Eager directory building (Section 4.2 principle (a)): return
        remote references for a file's currently cached blocks in one RPC,
        instead of waiting for per-read piggybacks."""
        proto = self.host.params.proto
        yield from self.host.cpu.execute(proto.fs_op_us, category="fs")
        name = self._existing(request)
        refs = []
        if self.piggyback_refs:
            for index in range(self.fs.block_count(name)):
                block = self.cache.lookup((name, index))
                if block is None:
                    continue
                ref = self.cache.ref_for(block)
                if ref is not None:
                    refs.append((index, ref))
            # Assembling the reference list costs the server per entry.
            yield from self.host.cpu.execute(0.05 * len(refs),
                                             category="fs")
        self.stats.incr("get_refs")
        # Each reference is ~32 bytes on the wire.
        return self._finish(request, RPCReply(
            inline_bytes=32 * len(refs),
            meta={"refs": refs, "refs_name": name}))

    def _h_read_batch(self, srv: RPCServer, request: RPCRequest) -> Generator:
        """Batch I/O (Section 2.2): one RPC triggers a set of server-issued
        RDMA writes, amortizing the client's per-I/O RPC cost."""
        args = request.args
        name = args["name"]
        cpu = self.host.cpu
        span = request.span
        yield from self._start_read(span)
        total = 0
        for extent in args["extents"]:
            offset, nbytes = extent["offset"], extent["nbytes"]
            yield from cpu.execute(2.0, category="fs")  # per-extent setup
            blocks = yield from self._read_blocks(
                name, self.fs.blocks_in_range(name, offset, nbytes), span)
            yield from self._put_direct(
                request, extent, nbytes,
                block_payload([b.data for b in blocks]), span)
            total += nbytes
        self.stats.incr("batch_reads")
        self.stats.incr("read_bytes", total)
        return self._finish(request, RPCReply(meta={"size": total}))

    def _h_write(self, srv: RPCServer, request: RPCRequest) -> Generator:
        """Write: payload arrives inline with the request; the server
        copies it into the file cache, updates metadata, and replies.
        (Writes always involve the server CPU — Section 4.2.2.)"""
        args = request.args
        name, offset, nbytes = args["name"], args["offset"], args["nbytes"]
        cpu = self.host.cpu
        proto = self.host.params.proto
        yield from cpu.execute(proto.fs_op_us, category="fs")
        if nbytes > 0:
            yield from cpu.copy(nbytes, cached=False)
        meta: Dict[str, Any] = {}
        refs: List[Tuple[int, Any]] = []
        for index in self.fs.blocks_in_range(name, offset, nbytes):
            data = self.fs.write_block(name, index, now=self.host.sim.now)
            if self.checksums is not None:
                # The reliable-metadata model: the checksum is recorded
                # from the just-written truth, before anything on the
                # data path can go wrong with the copy.
                self.checksums.record((name, index))
                yield from self._charge_checksum()
            if self.disk.faults is not None:
                # A misdirected write lands on the wrong sector: the
                # stored copy is silently wrong, the RPC still succeeds.
                data = self.disk.faults.misdirect_payload(data)
            block = self.cache.insert((name, index), data)
            if self.piggyback_refs:
                ref = self.cache.ref_for(block)
                if ref is not None:
                    refs.append((index, ref))
        if refs:
            meta["refs"] = refs
        inode = self.fs.lookup(name)
        meta.update({"size": inode.size, "mtime": inode.mtime})
        self.stats.incr("writes")
        self.stats.incr("write_bytes", nbytes)
        return self._finish(request, RPCReply(meta=meta))


class NFSServer(BaseFileServer):
    """NFS-family server over UDP (standard, pre-posting and hybrid
    clients all talk to this one; the request's mode/sg flags select the
    reply path)."""

    def __init__(self, host: Host, fs: FileSystem, disk: Disk,
                 cache: ServerFileCache, port: int = NFS_PORT):
        stack = UDPStack(host)
        super().__init__(host, fs, disk, cache, stack.socket(port),
                         name=f"{host.name}.nfsd")


class DAFSServer(BaseFileServer):
    """DAFS kernel server over a VI endpoint (Section 5: [21])."""

    def __init__(self, host: Host, fs: FileSystem, disk: Disk,
                 cache: ServerFileCache, port: int = DAFS_PORT,
                 mode: NotifyMode = NotifyMode.BLOCK,
                 slots: int = GMEndpoint.DEFAULT_SLOTS):
        self.endpoint = VIEndpoint(host, port, mode=mode, slots=slots)
        self.notify_mode = mode
        super().__init__(host, fs, disk, cache, self.endpoint,
                         name=f"{host.name}.dafsd")

    def _rdma_completion(self) -> Generator:
        if self.notify_mode is NotifyMode.BLOCK:
            yield from self.host.cpu.interrupt(
                coalesce_window_us=self.host.params.nic.interrupt_coalesce_us)
            yield from self.host.cpu.wakeup()
        else:
            yield from self.host.cpu.poll()


class ODAFSServer(DAFSServer):
    """Optimistic DAFS server: exported cache + piggybacked references."""

    piggyback_refs = True
