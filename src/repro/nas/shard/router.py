"""Client-side shard router: one per-system subclient per server.

The router sits between a workload and the existing per-system NAS
clients. It partitions every read/write into contiguous same-shard
segments (via the placement policy), fans the segments out concurrently
over the per-server subclients, and reassembles the payload in block
order — so a striped read returns byte-identical contents to a
single-server read of the same range. Namespace operations (open, close,
getattr) route to the file's *home* shard; create/remove broadcast, since
every server exports the full namespace.

Crash failover: an :class:`~repro.proto.rpc.RPCTimeoutError` from a
subclient (the retry budget against a crashed server is exhausted) marks
that shard down for ``params.shard.down_cooldown_us`` and re-issues the
operation against the next server in the block's replica chain — an RPC
read, since the replica holds a warm copy of the block but the client's
ORDMA directory entries for it point at the dead server's memory. With
no replicas configured the router surfaces a typed
:class:`ShardDownError` instead of hanging. After the cooldown the
router optimistically retries the primary (a restarted server serves
again, cold). Every decision lands in ``shard.*`` counters and, when a
tracer is attached, as ``shard.failover`` / ``shard.reroute`` span
marks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ...fs.files import block_payload, block_range, payload_blocks
from ...hw.host import Host
from ...integrity.checksum import IntegrityError
from ...proto.rpc import RPCTimeoutError
from ...sim import Counter, Span, span_start
from ..client.base import NASClient
from ..delegation import READ
from .placement import Placement


class ShardDownError(RuntimeError):
    """A shard (and every replica in its chain) is unreachable."""

    def __init__(self, shard: int, op: str, name: str):
        super().__init__(f"shard {shard} down ({op} {name!r}): no live "
                         f"replica in the chain")
        self.shard = shard
        self.op = op
        self.name = name


#: A per-target operation attempt (generator factory for one subclient).
_Attempt = Callable[[int], Generator]


class ShardRouter:
    """Routes one client's file operations across N per-server subclients."""

    def __init__(self, host: Host, subclients: List[NASClient],
                 placement: Placement, block_size: int,
                 down_cooldown_us: float = 10_000.0):
        if len(subclients) != placement.n_servers:
            raise ValueError(f"{len(subclients)} subclient(s) for "
                             f"{placement.n_servers} server(s)")
        self.host = host
        self.subclients = subclients
        self.placement = placement
        self.block_size = block_size
        self.down_cooldown_us = down_cooldown_us
        self.stats = Counter()
        #: shard index -> sim time until which it is considered down.
        self._down_until: Dict[int, float] = {}

    # -- small helpers -----------------------------------------------------

    @property
    def sim(self):
        return self.host.sim

    def is_down(self, shard: int) -> bool:
        """Whether ``shard`` is inside its down-cooldown window."""
        until = self._down_until.get(shard)
        return until is not None and self.sim.now < until

    def down_shards(self) -> int:
        return sum(1 for s in self._down_until if self.is_down(s))

    def gauges(self) -> Dict[str, Callable[[], float]]:
        """Telemetry probes: shards currently marked down."""
        return {"down": lambda: float(self.down_shards())}

    def _mark_down(self, shard: int, span: Optional[Span]) -> None:
        self._down_until[shard] = self.sim.now + self.down_cooldown_us
        self.stats.incr("down_marks")
        if span is not None:
            span.mark(self.host.name, "shard.failover", shard=shard)

    def _segments(self, name: str, offset: int,
                  nbytes: int) -> List[Tuple[int, int, int, int]]:
        """Split a byte range into (shard, seg_offset, seg_nbytes,
        n_blocks) runs of consecutive blocks with the same primary."""
        bs = self.block_size
        segments: List[Tuple[int, int, int, int]] = []
        run_start: Optional[int] = None
        run_shard = -1
        prev = -1

        def close_run(last_block: int) -> None:
            seg_off = max(offset, run_start * bs)
            seg_end = min(offset + nbytes, (last_block + 1) * bs)
            segments.append((run_shard, seg_off, seg_end - seg_off,
                             last_block - run_start + 1))

        for block in block_range(offset, nbytes, bs):
            shard = self.placement.shard_of(name, block)
            if run_start is None:
                run_start, run_shard = block, shard
            elif shard != run_shard:
                close_run(prev)
                run_start, run_shard = block, shard
            prev = block
        if run_start is not None:
            close_run(prev)
        return segments

    # -- failover-aware dispatch -------------------------------------------

    def _call_chain(self, chain: Tuple[int, ...], attempt: _Attempt,
                    op: str, name: str, span: Optional[Span] = None,
                    repair: Optional[Callable[[Any, List[int]],
                                              Generator]] = None) -> Generator:
        """Run ``attempt`` against the first live server in ``chain``.

        A timeout marks the target down and moves to the next chain
        entry. An :class:`IntegrityError` also moves on — the server is
        perfectly alive, its copy of the data is rotten — but does *not*
        mark the shard down; instead the target is remembered and, once a
        later replica returns good data, ``repair(result, bad_targets)``
        is run to write that data back (read-repair). Exhausting the
        chain raises ``IntegrityError`` if every live member failed
        verification, :class:`ShardDownError` otherwise.
        """
        attempted = False
        bad: List[int] = []
        for pos, target in enumerate(chain):
            if self.is_down(target):
                continue
            if pos > 0:
                # Serving from a replica: the primary is (known or just
                # found to be) down.
                self.stats.incr("replica_reads" if op == "read"
                                else "replica_ops")
                if span is not None:
                    span.mark(self.host.name, "shard.reroute",
                              shard=chain[0], replica=target)
            try:
                result = yield from attempt(target)
            except RPCTimeoutError:
                attempted = True
                self._mark_down(target, span)
                self.stats.incr("timeouts")
                continue
            except IntegrityError:
                attempted = True
                bad.append(target)
                self.stats.incr("integrity_errors")
                if span is not None:
                    span.mark(self.host.name, "integrity.reroute",
                              shard=target)
                continue
            if attempted:
                # This very call hit the timeout and recovered downstream.
                self.stats.incr("failovers")
            if bad and repair is not None:
                yield from repair(result, bad)
            return result
        if bad:
            raise IntegrityError(
                f"EINTEGRITY shard {chain[0]} ({op} {name!r}): every live "
                f"replica failed verification")
        raise ShardDownError(chain[0], op, name)

    def _chain(self, name: str) -> Tuple[int, ...]:
        """The replica chain of ``name``'s first block, its home."""
        return self.placement.replica_chain(name, 0)

    # -- namespace operations ----------------------------------------------

    def open(self, name: str, mode: str = READ) -> Generator:
        """Open at the home shard (failing over along its chain)."""
        result = yield from self._call_chain(
            self._chain(name), lambda t: self.subclients[t].open(name, mode),
            "open", name)
        self.stats.incr("opens")
        return result

    def close(self, name: str) -> Generator:
        """Close wherever the file was actually opened.

        After a failover-open the handle lives on a replica's subclient,
        not the home's; a close that times out is swallowed — the
        crashed server's open state died with it.
        """
        for sub in self.subclients:
            if name not in sub._handles:
                continue
            try:
                yield from sub.close(name)
            except RPCTimeoutError:
                shard = self.subclients.index(sub)
                self._mark_down(shard, None)
                self.stats.incr("timeouts")
        self.stats.incr("closes")

    def getattr(self, name: str) -> Generator:
        result = yield from self._call_chain(
            self._chain(name), lambda t: self.subclients[t].getattr(name),
            "getattr", name)
        return result

    def _broadcast(self, op: str, name: str,
                   attempt: _Attempt) -> Generator:
        """Run ``attempt`` on every live shard (namespace broadcast)."""
        procs = []
        reached = 0
        for shard in range(self.placement.n_servers):
            if self.is_down(shard):
                continue
            reached += 1
            procs.append(self.sim.process(
                self._swallow_timeout(shard, attempt),
                name=f"{self.host.name}.shard-{op}"))
        if reached == 0:
            raise ShardDownError(0, op, name)
        if procs:
            yield self.sim.all_of(procs)

    def _swallow_timeout(self, shard: int, attempt: _Attempt) -> Generator:
        try:
            yield from attempt(shard)
        except RPCTimeoutError:
            self._mark_down(shard, None)
            self.stats.incr("timeouts")

    def create(self, name: str, size: int) -> Generator:
        """Create on every server: each exports the full namespace."""
        yield from self._broadcast(
            "create", name, lambda t: self.subclients[t].create(name, size))
        self.stats.incr("creates")

    def remove(self, name: str) -> Generator:
        yield from self._broadcast(
            "remove", name, lambda t: self.subclients[t].remove(name))
        self.stats.incr("removes")

    # -- data operations ----------------------------------------------------

    def _read_segment(self, name: str, offset: int, nbytes: int,
                      n_blocks: int, sink: List[Any], slot: int,
                      span: Optional[Span]) -> Generator:
        first_block = offset // self.block_size
        chain = self.placement.replica_chain(name, first_block)

        def read_repair(result: Any, bad: List[int]) -> Generator:
            # Write the verified replica copy back over each rotten one:
            # the write path re-records the checksum from fresh truth, so
            # the quarantined server serves good data again without
            # waiting for its scrubber.
            for target in bad:
                yield from self.subclients[target].write(name, offset,
                                                         nbytes)
                self.stats.incr("read_repairs")
                if span is not None:
                    span.mark(self.host.name, "integrity.repair",
                              shard=target)

        data = yield from self._call_chain(
            chain, lambda t: self.subclients[t].read(name, offset, nbytes),
            "read", name, span=span, repair=read_repair)
        sink[slot] = payload_blocks(data, n_blocks)

    def read(self, name: str, offset: int, nbytes: int,
             app_buffer=None) -> Generator:
        """Read a byte range, fanning same-shard segments out in parallel
        and reassembling the payload in block order. An empty range costs
        nothing, as on a single server: no segment, no count."""
        if not nbytes:
            return block_payload([])
        span = span_start(self.sim, self.host.name, "shard.read",
                          name=name, offset=offset, nbytes=nbytes)
        segments = self._segments(name, offset, nbytes)
        if span is not None:
            span.mark(self.host.name, "shard.route",
                      segments=len(segments),
                      shards=sorted({s for s, _, _, _ in segments}))
        results: List[Any] = [None] * len(segments)
        if len(segments) == 1:
            _, seg_off, seg_n, blocks = segments[0]
            yield from self._read_segment(name, seg_off, seg_n, blocks,
                                          results, 0, span)
        elif segments:
            procs = [self.sim.process(
                self._read_segment(name, seg_off, seg_n, blocks, results,
                                   slot, span),
                name=f"{self.host.name}.shard-read")
                for slot, (_, seg_off, seg_n, blocks)
                in enumerate(segments)]
            yield self.sim.all_of(procs)
            self.stats.incr("fanout_reads")
        payload = block_payload([item for seg in results for item in seg])
        if app_buffer is not None:
            app_buffer.data = payload
        self.stats.incr("reads")
        self.stats.incr("read_bytes", nbytes)
        self.stats.incr("routed_segments", len(segments))
        if span is not None:
            span.finish(self.host.name)
        return payload

    def read_async(self, name: str, offset: int, nbytes: int,
                   app_buffer=None):
        """Issue a read as a concurrent process (aio-style read-ahead)."""
        return self.sim.process(
            self.read(name, offset, nbytes, app_buffer),
            name=f"{self.host.name}.shard-aio")

    def _write_segment(self, name: str, offset: int, nbytes: int,
                       sink: List[Any], slot: int,
                       span: Optional[Span]) -> Generator:
        """Write one segment to every live member of its replica chain
        (replicas hold warm copies, so failover reads stay current)."""
        first_block = offset // self.block_size
        chain = self.placement.replica_chain(name, first_block)
        wrote = 0
        meta: Any = None
        for target in chain:
            if self.is_down(target):
                continue
            try:
                meta = yield from self.subclients[target].write(
                    name, offset, nbytes)
            except RPCTimeoutError:
                self._mark_down(target, span)
                self.stats.incr("timeouts")
                continue
            wrote += 1
        if wrote == 0:
            raise ShardDownError(chain[0], "write", name)
        sink[slot] = meta

    def write(self, name: str, offset: int, nbytes: int) -> Generator:
        """Write a byte range through the primaries (and replicas)."""
        span = span_start(self.sim, self.host.name, "shard.write",
                          name=name, offset=offset, nbytes=nbytes)
        segments = self._segments(name, offset, nbytes)
        results: List[Any] = [None] * len(segments)
        if len(segments) == 1:
            _, seg_off, seg_n, _ = segments[0]
            yield from self._write_segment(name, seg_off, seg_n,
                                           results, 0, span)
        elif segments:
            procs = [self.sim.process(
                self._write_segment(name, seg_off, seg_n, results, slot,
                                    span),
                name=f"{self.host.name}.shard-write")
                for slot, (_, seg_off, seg_n, _) in enumerate(segments)]
            yield self.sim.all_of(procs)
        self.stats.incr("writes")
        self.stats.incr("write_bytes", nbytes)
        if span is not None:
            span.finish(self.host.name)
        # An empty range touches no block, so no server replies to it.
        return results[0] if results else None
