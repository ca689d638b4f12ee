"""Standard NFS client: RPC over UDP, staged through the buffer cache.

This is the paper's baseline (Fig. 3: ~65 MB/s, client CPU saturated by
memory copying). Every read stages the payload in the kernel buffer cache:
one copy from network buffers into the cache, a second from the cache to
the user buffer, plus per-fragment protocol work in the NFS layer on top
of what the UDP stack already charged.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

from ...hw.host import Host
from ...hw.memory import Buffer
from ...proto.rpc import RPC_HEADER_BYTES
from ...proto.udp import UDPStack
from ..server.server import NFS_PORT
from .base import NASClient


class _BufferCache:
    """Minimal kernel buffer cache keyed by (file, offset, length)."""

    def __init__(self, capacity_entries: int):
        from ...cache.lru import LRUPolicy
        self.capacity = capacity_entries
        self._policy = LRUPolicy(capacity_entries)
        self._data = {}

    def probe(self, key):
        entry = self._data.get(key)
        if entry is not None:
            self._policy.touch(key)
        return entry

    def insert(self, key, data):
        victim = self._policy.admit(key)
        if victim is not None:
            self._data.pop(victim, None)
        self._data[key] = data

    def invalidate_file(self, name):
        for key in [k for k in self._data if k[0] == name]:
            self._policy.remove(key)
            del self._data[key]


class NFSClient(NASClient):
    """FreeBSD-style NFS client over UDP (readahead handled by callers)."""

    kernel = True

    def __init__(self, host: Host, server: str, port: int = NFS_PORT,
                 bcache_entries: int = 256, transport=None):
        """``transport`` overrides the default UDP socket — e.g. a framed
        TCP connection for the UDP-vs-TCP transport ablation."""
        if transport is None:
            transport = UDPStack(host).socket(port)
        super().__init__(host, transport, server)
        self.bcache = _BufferCache(bcache_entries)

    def _fragments(self, nbytes: int) -> int:
        payload = self.host.params.net.ip_fragment_payload
        return max(1, math.ceil(nbytes / payload))

    def _read(self, name: str, offset: int, nbytes: int,
              app_buffer: Optional[Buffer]) -> Generator:
        span = self._start_span("read", name=name, offset=offset,
                                nbytes=nbytes)
        yield from self._syscall()
        host_p = self.host.params.host
        key = (name, offset, nbytes)
        yield from self.cpu.execute(host_p.buffer_cache_op_us,
                                    category="bcache")
        cached = self.bcache.probe(key)
        if cached is None:
            response = yield from self._call(
                "read", {"name": name, "offset": offset, "nbytes": nbytes,
                         "mode": "inline"}, span=span)
            # NFS receive path: per-fragment mbuf-chain work, then the
            # staging copy from network buffers into the buffer cache.
            yield from self.cpu.execute(
                self._fragments(nbytes) * self.proto.nfs_frag_us,
                category="nfs")
            yield from self.cpu.copy(nbytes, cached=False)
            if span is not None:
                span.mark(self.host.name, "client.copy", bytes=nbytes)
            cached = response.data
            self.bcache.insert(key, cached)
            self.stats.incr("remote_reads")
        else:
            if span is not None:
                span.path = "local"
            self.stats.incr("cache_reads")
        # Copy from the buffer cache to the user buffer.
        yield from self.cpu.copy(nbytes, cached=False)
        if app_buffer is not None:
            app_buffer.data = cached
        self._count_io("reads", "read_bytes", nbytes, span)
        return cached

    def write(self, name: str, offset: int, nbytes: int) -> Generator:
        span = self._start_span("write", name=name, offset=offset,
                                nbytes=nbytes)
        yield from self._syscall()
        host_p = self.host.params.host
        # Copy user buffer into the buffer cache, then transmit inline.
        yield from self.cpu.execute(host_p.buffer_cache_op_us,
                                    category="bcache")
        yield from self.cpu.copy(nbytes, cached=False)
        yield from self.cpu.execute(
            self._fragments(nbytes) * self.proto.nfs_frag_us, category="nfs")
        if span is not None:
            span.mark(self.host.name, "client.copy", bytes=nbytes)
        response = yield from self._call(
            "write", {"name": name, "offset": offset, "nbytes": nbytes},
            req_bytes=RPC_HEADER_BYTES + nbytes, span=span)
        self.bcache.invalidate_file(name)
        self._count_io("writes", "write_bytes", nbytes, span)
        return response.meta
