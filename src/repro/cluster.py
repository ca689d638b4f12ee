"""Testbed wiring: hosts, switch, servers and clients for one experiment.

A :class:`Cluster` reproduces the paper's experimental platform — up to
four PCs on a 2 Gb/s switch (Section 5) — configured for one of the five
NAS systems of Table 1:

========== ===================== ============================+
system      server                client
========== ===================== ============================+
nfs         NFSServer (UDP)       NFSClient (copies, bcache)
nfs-prepost NFSServer (UDP)       NFSPrepostClient (RDDP-RPC)
nfs-hybrid  NFSServer (UDP+GM)    NFSHybridClient (RDMA data)
dafs        DAFSServer (VI)       DAFSClient (user-level)
odafs       ODAFSServer (VI)      ODAFSClient (ORDMA)
========== ===================== ============================+

``params.shard.n_servers`` full server stacks — host, disk, file cache
and (optional) admission scheduler each — sit behind the switch. One
server (the default) is the paper's testbed: a host named ``server`` on
the well-known ports, talked to by plain clients. N > 1 servers (``nfs``,
``dafs`` and ``odafs`` only) is the sharded scale-out continuation:
shard ``k`` is host ``server{k}`` serving on ``base_port + k`` (NFS
2049+k, DAFS 10+k), and each client host is a
:class:`~repro.nas.shard.ShardRouter` over one subclient per server.
GM/UDP deliver to the same port number at the destination host, so
subclient ``k`` binds the matching port on the client side; the NFS
subclients share the client host's single UDP stack (one Ethernet handler
per NIC).

Every server's file system holds the *full* file — block content is the
``(name, index, version)`` tuple, so any server can serve any block
correctly from disk — but only the blocks a server primaries (or
replicates) are warmed into its cache. Striping is therefore purely a
routing and cache-warming concern, which is what makes striped reads
byte-identical to the single-server baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .fs.disk import Disk
from .fs.files import FileSystem
from .hw.host import Host
from .hw.nic import NotifyMode
from .nas.client.base import NASClient
from .nas.client.dafs import DAFSClient
from .nas.client.nfs import NFSClient
from .nas.client.nfs_hybrid import NFSHybridClient
from .nas.client.nfs_prepost import NFSPrepostClient
from .nas.client.nfs_remap import NFSRemapClient
from .nas.client.odafs import ODAFSClient
from .nas.server.filecache import ServerFileCache
from .nas.server.sched import RequestScheduler
from .nas.server.server import (DAFS_PORT, NFS_PORT, DAFSServer, NFSServer,
                                ODAFSServer)
from .nas.shard.placement import make_placement
from .nas.shard.router import ShardRouter
from .net.link import Switch
from .net.packet import reset_msg_ids
from .params import Params, default_params
from .proto.rpc import RetryPolicy
from .proto.udp import UDPStack
from .sim import (MetricsRegistry, RandomStreams, Simulator,
                  TimeSeriesSampler)

SYSTEMS = ("nfs", "nfs-prepost", "nfs-remap", "nfs-hybrid", "dafs", "odafs")

#: Systems that run on more than one server (the paper's baseline, the
#: kernel DAFS variant, and the optimistic client the scale-out story is
#: about).
SHARD_SYSTEMS = ("nfs", "dafs", "odafs")

_NFS_FAMILY = {"nfs-prepost": NFSPrepostClient, "nfs-remap": NFSRemapClient,
               "nfs-hybrid": NFSHybridClient}


class _OnlyServer:
    """Read-only view of one per-server list's only entry.

    The paper's testbed has one server, and most experiments address its
    stack directly (``cluster.server``, ``cluster.cache``, ...). On a
    multi-server cluster that name is ambiguous, so it raises instead of
    quietly answering for server 0.
    """

    def __init__(self, stacks: str):
        self.stacks = stacks

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, cluster, owner=None):
        if cluster is None:
            return self
        if cluster.n_servers != 1:
            raise RuntimeError(
                f"cluster.{self.name} is ambiguous with "
                f"{cluster.n_servers} servers; use "
                f"cluster.{self.stacks}[k]")
        return getattr(cluster, self.stacks)[0]


class Cluster:
    """One wired experiment: ``params.shard.n_servers`` servers plus
    ``n_clients`` client hosts."""

    server = _OnlyServer("servers")
    server_host = _OnlyServer("server_hosts")
    fs = _OnlyServer("filesystems")
    disk = _OnlyServer("disks")
    cache = _OnlyServer("caches")
    scheduler = _OnlyServer("schedulers")

    def __init__(self, params: Optional[Params] = None,
                 system: str = "dafs", n_clients: int = 1,
                 block_size: Optional[int] = None,
                 server_cache_blocks: int = 4096,
                 server_notify_mode: NotifyMode = NotifyMode.BLOCK,
                 use_capabilities: bool = True,
                 server_preload_tlb: bool = True,
                 client_kwargs: Optional[Dict] = None):
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; one of {SYSTEMS}")
        self.params = params or default_params()
        self.system = system
        shard_p = self.params.shard
        self.n_servers = shard_p.n_servers
        if self.n_servers > 1 and system not in SHARD_SYSTEMS:
            raise ValueError(f"system {system!r} runs on one server; "
                             f"{self.n_servers} servers need one of "
                             f"{SHARD_SYSTEMS}")
        self.placement = make_placement(shard_p, self.params.seed)
        self.sim = Simulator()
        self.rand = RandomStreams(self.params.seed)
        self.switch = Switch(self.sim, self.params.net)
        self.block_size = block_size or self.params.storage.server_cache_block

        # -- servers: one full stack per shard ---------------------------
        self.server_hosts: List[Host] = []
        self.filesystems: List[FileSystem] = []
        self.disks: List[Disk] = []
        self.caches: List[ServerFileCache] = []
        self.servers = []
        #: Admission/request schedulers; ``None`` entries unless
        #: ``params.sched`` enables a policy (the seed dispatch model
        #: stays untouched).
        self.schedulers: List[Optional[RequestScheduler]] = []
        sched_p = self.params.sched
        for k in range(self.n_servers):
            name = "server" if self.n_servers == 1 else f"server{k}"
            host = Host(self.sim, self.params, self.switch, name,
                        use_capabilities=use_capabilities)
            fs = FileSystem(self.block_size)
            disk = Disk(self.sim, self.params.storage, name=f"{name}.disk")
            cache = ServerFileCache(host, self.block_size,
                                    server_cache_blocks,
                                    export=(system == "odafs"),
                                    preload_tlb=server_preload_tlb)
            if system in ("dafs", "odafs"):
                cls = ODAFSServer if system == "odafs" else DAFSServer
                server = cls(host, fs, disk, cache, port=DAFS_PORT + k,
                             mode=server_notify_mode)
            else:
                server = NFSServer(host, fs, disk, cache, port=NFS_PORT + k)
            scheduler: Optional[RequestScheduler] = None
            if sched_p.policy != "none":
                scheduler = RequestScheduler(
                    self.sim, policy=sched_p.policy,
                    service_threads=sched_p.service_threads,
                    max_queue=sched_p.max_queue)
                server.rpc.attach_scheduler(scheduler)
            server.start()
            self.server_hosts.append(host)
            self.filesystems.append(fs)
            self.disks.append(disk)
            self.caches.append(cache)
            self.servers.append(server)
            self.schedulers.append(scheduler)

        # -- clients: plain on one server, a router over N subclients -----
        kwargs = dict(client_kwargs or {})
        self.client_hosts: List[Host] = []
        self.clients = []
        for i in range(n_clients):
            host = Host(self.sim, self.params, self.switch, f"client{i}",
                        use_capabilities=use_capabilities)
            self.client_hosts.append(host)
            subclients = self._make_subclients(host, kwargs)
            if sched_p.policy != "none":
                # Rejections come back as busy replies; each subclient
                # backs off on its own seeded jitter stream.
                for k, sub in enumerate(subclients):
                    suffix = f".s{k}" if self.n_servers > 1 else ""
                    sub.rpc.reject_retry = RetryPolicy(
                        backoff_base_us=sched_p.reject_backoff_base_us,
                        backoff_factor=sched_p.reject_backoff_factor,
                        backoff_cap_us=sched_p.reject_backoff_cap_us,
                        jitter=sched_p.reject_jitter,
                        max_retries=sched_p.reject_max_retries,
                        rng=self.rand.stream(f"{host.name}.reject{suffix}"))
            if self.n_servers == 1:
                self.clients.append(subclients[0])
            else:
                self.clients.append(ShardRouter(
                    host, subclients, self.placement, self.block_size,
                    down_cooldown_us=shard_p.down_cooldown_us))

        #: One hierarchical read-out over every component's instruments.
        self.metrics = MetricsRegistry()
        self._register_metrics()
        #: Continuous telemetry; ``None`` until :meth:`attach_sampler`.
        self.sampler: Optional[TimeSeriesSampler] = None
        # Message ids are module-global: restart them per cluster, so
        # same-seed runs stay byte-identical when one process builds
        # several clusters in sequence. (Xids are per RPC client, and
        # every client above is new.)
        reset_msg_ids()

    def _make_subclients(self, host: Host, kwargs: Dict) -> List[NASClient]:
        """One NAS client per server on ``host``, bound to its port."""
        servers = self.server_hosts
        if self.system == "nfs":
            # One Ethernet handler per NIC: every NFS subclient shares
            # the host's single UDP stack, on its shard's port.
            stack = UDPStack(host)
            return [NFSClient(host, srv.name,
                              transport=stack.socket(NFS_PORT + k), **kwargs)
                    for k, srv in enumerate(servers)]
        if self.system in _NFS_FAMILY:
            return [_NFS_FAMILY[self.system](host, "server", **kwargs)]
        kwargs = {"cache_block_size": self.block_size, **kwargs}
        cls = ODAFSClient if self.system == "odafs" else DAFSClient
        return [cls(host, srv.name, port=DAFS_PORT + k, **kwargs)
                for k, srv in enumerate(servers)]

    def named_subclients(self, index: int) -> List[Tuple[str, NASClient]]:
        """Client ``index``'s per-server NAS clients with their metric
        prefixes: the plain client itself as ``client{i}`` on one server,
        router subclient ``k`` as ``client{i}.s{k}`` on N."""
        client = self.clients[index]
        if self.n_servers == 1:
            return [(f"client{index}", client)]
        return [(f"client{index}.s{k}", sub)
                for k, sub in enumerate(client.subclients)]

    def _register_metrics(self) -> None:
        reg = self.metrics
        for host, server, disk, cache, scheduler in zip(
                self.server_hosts, self.servers, self.disks, self.caches,
                self.schedulers):
            prefix = host.name
            reg.register(f"{prefix}.cpu", host.cpu.busy)
            reg.register(f"{prefix}.nic", host.nic.stats)
            reg.register(f"{prefix}.disk", disk.stats)
            reg.register(f"{prefix}.cache", cache.stats)
            reg.register(f"{prefix}.ops", server.stats)
            reg.register(f"{prefix}.rpc", server.rpc.stats)
            if server.checksums is not None:
                reg.register(f"{prefix}.integrity", server.integrity)
            if scheduler is not None:
                reg.register(f"{prefix}.sched", scheduler.stats)
        for i, (host, client) in enumerate(zip(self.client_hosts,
                                               self.clients)):
            reg.register(f"{host.name}.cpu", host.cpu.busy)
            reg.register(f"{host.name}.nic", host.nic.stats)
            if self.n_servers > 1:
                reg.register(f"{host.name}.shard", client.stats)
            for prefix, sub in self.named_subclients(i):
                reg.register(f"{prefix}.ops", sub.stats)
                reg.register(f"{prefix}.rpc", sub.rpc.stats)
                cache = getattr(sub, "cache", None)
                if cache is not None and hasattr(cache, "stats"):
                    reg.register(f"{prefix}.cache", cache.stats)

    def attach_sampler(self, interval_us: float = 50.0) -> TimeSeriesSampler:
        """Wire a :class:`~repro.sim.TimeSeriesSampler` over every
        component's gauges, under the registry's dotted naming scheme
        (``client{i}.shard`` probes a router's shards currently marked
        down).

        Telemetry stays off by default — this only builds the probe set
        and registers it on :attr:`metrics` as ``timeseries``; sampling
        begins when the caller invokes ``sampler.start(stop_on=proc)``
        around the measured workload. Can be attached at most once.
        """
        if self.sampler is not None:
            raise RuntimeError("sampler already attached")
        sampler = TimeSeriesSampler(self.sim, interval_us=interval_us)
        for host, server, cache, scheduler in zip(
                self.server_hosts, self.servers, self.caches,
                self.schedulers):
            prefix = host.name
            sampler.probe_many(f"{prefix}.cpu", host.cpu.gauges())
            sampler.probe_many(f"{prefix}.nic", host.nic.gauges())
            sampler.probe_many(f"{prefix}.cache", cache.gauges())
            sampler.probe_many(f"{prefix}.rpc", server.rpc.gauges())
            if server.checksums is not None:
                sampler.probe_many(f"{prefix}.integrity",
                                   server.integrity_gauges())
            if scheduler is not None:
                sampler.probe_many(f"{prefix}.sched", scheduler.gauges())
            sampler.probe_many(f"net.{prefix}", host.nic.port.gauges())
        for i, (host, client) in enumerate(zip(self.client_hosts,
                                               self.clients)):
            sampler.probe_many(f"{host.name}.cpu", host.cpu.gauges())
            sampler.probe_many(f"{host.name}.nic", host.nic.gauges())
            if self.n_servers > 1:
                sampler.probe_many(f"{host.name}.shard", client.gauges())
            for prefix, sub in self.named_subclients(i):
                sampler.probe_many(f"{prefix}.rpc", sub.rpc.gauges())
                ordma = getattr(sub, "ordma", None)
                if ordma is not None:
                    sampler.probe_many(f"{prefix}.ordma", ordma.gauges())
                directory = getattr(sub, "directory", None)
                if directory is not None:
                    sampler.probe_many(f"{prefix}.dir", directory.gauges())
            sampler.probe_many(f"net.{host.name}", host.nic.port.gauges())
        sampler.probe_many("net.switch", self.switch.gauges())
        self.metrics.register("timeseries", sampler)
        self.sampler = sampler
        return sampler

    # -- experiment setup -------------------------------------------------

    def create_file(self, name: str, size: int, warm: bool = True) -> None:
        """Create ``name`` in every server's namespace; ``warm=True``
        preloads the server file caches (the standard Section 5 setup):
        the whole file on one server, and on N each block on the servers
        of its replica chain."""
        for fs in self.filesystems:
            fs.create(name, size)
        if not warm:
            return
        if self.n_servers == 1:
            # The only server holds every block: skip the placement
            # lookups (one sha256 each), which would dominate set-up.
            self.servers[0].warm(name)
            return
        for index in range(self.filesystems[0].block_count(name)):
            for k in self.placement.replica_chain(name, index):
                self.caches[k].insert(
                    (name, index),
                    self.filesystems[k].block_content(name, index))

    # -- measurement helpers ------------------------------------------------

    def reset_measurements(self) -> None:
        """Open a fresh measurement window on every host CPU."""
        for host in self.server_hosts + self.client_hosts:
            host.cpu.reset_measurement()

    def server_cpu_utilization(self) -> float:
        """Mean per-server CPU utilization over the current measurement
        window (the quantity that saturates per machine)."""
        utils = self.server_cpu_utilizations()
        return sum(utils) / len(utils)

    def server_cpu_utilizations(self) -> List[float]:
        """Each server's CPU utilization over the measurement window."""
        return [host.cpu.utilization() for host in self.server_hosts]

    def client_cpu_utilization(self, index: int = 0) -> float:
        """One client's CPU utilization over the measurement window."""
        return self.client_hosts[index].cpu.utilization()
