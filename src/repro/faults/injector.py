"""The injector: wires fault adapters into a cluster and arms schedules.

Usage::

    cluster = Cluster(params, system="odafs")
    inj = Injector(cluster)
    inj.enable_resilience()            # RPC retry + RDMA timeouts
    inj.link_loss(0.01)                # 1% frame drop, steady state
    inj.schedule_server_crash(FaultSchedule.at([50_000.0]))  # server 0
    inj.arm()
    cluster.sim.run()

``enable_resilience`` takes the RPC timeout and retry budget, the two
settings the campaigns vary; the retry jitter, the RDMA deadline and the
server's put retransmissions are this module's constants.

All randomness flows through named :class:`repro.sim.RandomStreams`
streams derived from the cluster's master seed (``faults.link``,
``faults.nic.client0``, …), so a campaign is a pure function of its
seed. The injector registers one shared fault counter under ``faults``
in the cluster's metrics registry; every injected fault also lands in
the tracer (kind ``fault``) when one is attached.
"""

from __future__ import annotations

import random
from typing import Callable, Generator, List, Optional, Tuple

from ..proto.rpc import RetryPolicy
from ..sim import Counter
from .adapters import DiskFaults, LinkFaults, NicFaults, ServerFaults
from .schedule import FaultSchedule

#: An armed schedule: (schedule, action).
_Armed = Tuple[FaultSchedule, Callable[[], None]]

#: Seeded jitter on each RPC retry backoff, as a fraction of the delay;
#: the backoff itself is :class:`RetryPolicy`'s default (200 us doubling
#: per attempt, capped at 4 ms).
RETRY_JITTER = 0.25
#: Initiator-side deadline on every RDMA operation once resilience is on.
RDMA_TIMEOUT_US = 3000.0
#: Retransmissions of a server-initiated RDMA write before it fails.
RDMA_PUT_RETRIES = 10


class Injector:
    """Installs fault adapters on one cluster and drives schedules."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        #: Shared fault counter, one namespace per layer (link.drop, …).
        self.stats = Counter()
        self._schedules: List[_Armed] = []
        self._armed = False
        if "faults" not in cluster.metrics:
            cluster.metrics.register("faults", self.stats)

    def _stream(self, name: str) -> random.Random:
        return self.cluster.rand.stream(f"faults.{name}")

    def _label(self, index: int) -> str:
        """Stream-name suffix for server-side component ``index``.

        One-server clusters keep the historical bare names (``server``,
        ``disk``) so their campaigns stay byte-identical; multi-server
        clusters get indexed streams (``server0``, ``disk1``, …).
        """
        return str(index) if self.cluster.n_servers > 1 else ""

    # -- adapter installation (lazy; one per component) --------------------

    @property
    def link(self) -> LinkFaults:
        switch = self.cluster.switch
        if switch.faults is None:
            switch.faults = LinkFaults(self.sim, self._stream("link"),
                                       stats=self.stats,
                                       component=switch.name)
        return switch.faults

    def nic(self, host) -> NicFaults:
        if host.nic.faults is None:
            host.nic.faults = NicFaults(
                self.sim, self._stream(f"nic.{host.name}"),
                stats=self.stats, component=host.name)
        return host.nic.faults

    def disk_faults(self, index: int = 0) -> DiskFaults:
        """The fault adapter for server ``index``'s disk."""
        disk = self.cluster.disks[index]
        if disk.faults is None:
            disk.faults = DiskFaults(
                self.sim, self._stream(f"disk{self._label(index)}"),
                stats=self.stats, component=disk.name)
        return disk.faults

    def server_faults(self, index: int = 0) -> ServerFaults:
        """The fault adapter for server ``index``'s RPC process."""
        rpc = self.cluster.servers[index].rpc
        if rpc.faults is None:
            rpc.faults = ServerFaults(
                self.sim, self._stream(f"server{self._label(index)}"),
                stats=self.stats,
                component=self.cluster.server_hosts[index].name)
            rpc.on_crash = self._state_loss_of(index)
        return rpc.faults

    def _state_loss_of(self, index: int):
        """Crash consequence for server ``index``: its file cache does
        not survive a restart.

        Dropping the blocks deregisters their TPT segments, so every
        ORDMA reference clients still hold is now stale and will fault —
        the recovery story of Section 4.1 at whole-cache scale.
        """
        cache = self.cluster.caches[index]

        def lose_state() -> None:
            lost = cache.clear()
            self.stats.incr("server.cache_blocks_lost", lost)
        return lose_state

    # -- steady-state rate configuration ----------------------------------

    def link_loss(self, p: float) -> None:
        """Drop each forwarded frame with probability ``p``."""
        self.link.drop_p = p

    def nic_doorbell_stalls(self, p: float, stall_us: float) -> None:
        """Stall doorbell rings with probability ``p`` on every host."""
        for host in self.cluster.server_hosts + self.cluster.client_hosts:
            nf = self.nic(host)
            nf.stall_p = p
            nf.stall_us = stall_us

    def ordma_rejects(self, p: float) -> None:
        """Make the server NICs fault optimistic accesses at rate ``p``."""
        for host in self.cluster.server_hosts:
            self.nic(host).ordma_reject_p = p

    def ordma_silent_corruption(self, p: float) -> None:
        """Silently corrupt served optimistic gets with probability ``p``.

        Unlike :meth:`ordma_rejects` nothing faults: the server NIC
        completes the get normally but ships a wrong payload, modelling
        exactly the validation gap the direct-access path opens (the
        server CPU never sees the bytes a client DMAs out of its cache).
        Detectable only by client-side verification of the checksum
        carried on the ORDMA reference (``params.integrity``).
        """
        for host in self.cluster.server_hosts:
            self.nic(host).ordma_corrupt_p = p

    def disk_bitrot(self, p: float) -> None:
        """Silently corrupt payloads read from disk with probability
        ``p`` (decayed media: the read succeeds, the data is wrong).

        Hits the server's cache-miss fill path, so the corrupt copy then
        sits in the file cache serving every consumer — RPC readers,
        exported ORDMA blocks, replicas warming from it — until a
        checksum verification (read-path or scrubber) catches it.
        """
        for k in range(self.cluster.n_servers):
            self.disk_faults(k).bitrot_p = p

    def disk_errors(self, p: float) -> None:
        """Fail disk accesses with probability ``p`` (transient)."""
        for k in range(self.cluster.n_servers):
            self.disk_faults(k).error_p = p

    def disk_delays(self, p: float, spike_us: float) -> None:
        """Add a ``spike_us`` positioning spike with probability ``p``."""
        for k in range(self.cluster.n_servers):
            df = self.disk_faults(k)
            df.delay_p = p
            df.delay_us = spike_us

    def server_crashes(self, p: float,
                       downtime_us: Optional[float] = None) -> None:
        """Crash each server with probability ``p`` per arriving request."""
        for k in range(self.cluster.n_servers):
            sf = self.server_faults(k)
            sf.crash_p = p
            if downtime_us is not None:
                sf.downtime_us = downtime_us

    # -- scheduled faults ---------------------------------------------------

    def schedule(self, sched: FaultSchedule,
                 action: Callable[[], None]) -> None:
        """Run ``action`` at each of ``sched``'s fire times, once
        :meth:`arm` is called."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._schedules.append((sched, action))

    def schedule_server_crash(self, sched: FaultSchedule,
                              downtime_us: Optional[float] = None) -> None:
        """Crash the first server at each fire time (restart after
        downtime)."""
        faults = self.server_faults(0)
        rpc = self.cluster.servers[0].rpc
        self.schedule(sched, lambda: faults.crash_now(rpc, downtime_us))

    def _run_schedule(self, sched: FaultSchedule,
                      action: Callable[[], None]) -> Generator:
        for when in sched.times:
            if when > self.sim.now:
                yield self.sim.timeout(when - self.sim.now)
            action()

    def arm(self) -> None:
        """Spawn one task per bound schedule to run it."""
        self._armed = True
        for sched, action in self._schedules:
            self.sim.spawn(self._run_schedule(sched, action))

    # -- resilience ---------------------------------------------------------

    def enable_resilience(self, timeout_us: float = 4000.0,
                          max_retries: int = 10) -> None:
        """Turn on the recovery machinery injected faults rely on.

        Gives every client an RPC :class:`RetryPolicy` (timeout, capped
        exponential backoff with seeded jitter, retransmission under the
        same xid), puts an initiator-side timeout on all RDMA operations
        so dropped frames surface as recoverable faults instead of
        hangs, and lets the server retransmit its server-initiated RDMA
        writes. Off by default because the extra timer events perturb
        event ordering relative to an un-injected run.
        """
        for i, client in enumerate(self.cluster.clients):
            # One retry policy (and stream) per per-server subclient, so
            # a retransmission storm on one shard never perturbs another
            # shard's jitter draws; a one-server cluster's plain client
            # keeps the historical ``retry.client{i}`` stream.
            for prefix, sub in self.cluster.named_subclients(i):
                sub.rpc.retry = RetryPolicy(
                    timeout_us=timeout_us, max_retries=max_retries,
                    jitter=RETRY_JITTER,
                    rng=self._stream(f"retry.{prefix}"))
            client.host.nic.rdma_timeout_us = RDMA_TIMEOUT_US
        for host in self.cluster.server_hosts:
            host.nic.rdma_timeout_us = RDMA_TIMEOUT_US
        for server in self.cluster.servers:
            server.rdma_put_retries = RDMA_PUT_RETRIES
