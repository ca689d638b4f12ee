"""Calibrated cost model for the FAST'03 testbed.

Every timing constant the simulation uses lives here, with its provenance.
The anchors are the paper's published numbers (Section 5):

* Table 2 — GM 1-byte RTT 23 us / 244 MB/s; VI poll 23 us, VI block 53 us,
  244 MB/s; UDP/Ethernet 80 us / 166 MB/s.
* Fig. 3 — DAFS / NFS-hybrid plateau ~230 MB/s, NFS pre-posting ~235 MB/s,
  standard NFS ~65 MB/s.
* Table 3 — 4 KB read response time: RPC in-line 128/153 us, RPC direct
  144/144 us, ORDMA 92/92 us.
* Fig. 7 — polling DAFS server, 4 KB blocks: ~170 MB/s; ODAFS saturates the
  link; ORDMA improvement capped at ~32%.
* Hardware: 1 GHz Pentium III, ServerWorks LE, 64 MHz/66-bit PCI measured
  at 450 MB/s, 2 Gb/s full-duplex Myrinet, LANai9.2, GM-2.0, FreeBSD 4.6.

Units: time in microseconds, sizes in bytes, bandwidth in bytes/us
(numerically equal to MB/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

KB = 1024
MB = 1000 * 1000  # the paper's MB/s arithmetic is decimal (2 Gb/s = 250 MB/s)


@dataclass
class HostParams:
    """CPU-side costs for a 1 GHz Pentium III running FreeBSD 4.6."""

    #: Large-copy bandwidth when source/destination are cache-warm
    #: (netperf-style socket copies). Calibrated so UDP streaming lands at
    #: ~166 MB/s with one receive-path copy (Table 2).
    copy_bw_cached: float = 200.0
    #: Copy bandwidth through the buffer cache / file cache (cold
    #: destinations, cache-polluting). Calibrated jointly to the standard
    #: NFS ~65 MB/s plateau (Fig. 3) and the 25 us in-cache vs in-memory
    #: in-line RPC difference (Table 3).
    copy_bw_uncached: float = 160.0
    #: Hardware interrupt entry/exit + handler dispatch.
    interrupt_us: float = 5.0
    #: Scheduler wakeup + context switch to the blocked thread. Together
    #: with interrupt_us this is the VI block-vs-poll delta: 23 us + 2x15 us
    #: = 53 us RTT (Table 2).
    wakeup_us: float = 10.0
    #: Polling for a completion (cache hit on a completion queue entry).
    poll_us: float = 1.0
    #: User/kernel boundary crossing (syscall entry + exit).
    syscall_us: float = 2.0
    #: Pinning + IOMMU/VtoP setup for one page during memory registration.
    register_page_us: float = 1.5
    #: Unpin + teardown for one page.
    deregister_page_us: float = 1.0
    #: Buffer-cache block lookup/insert bookkeeping (per block).
    buffer_cache_op_us: float = 2.0
    #: VM page re-mapping (page-table update + local TLB shootdown) per
    #: page, for the untagged RDDP-RPC client (Section 2.2): cheaper than
    #: copying a page but not free.
    remap_page_us: float = 1.2
    #: Application-level copy bandwidth (Fig. 5's per-record copy from the
    #: db cache to the application buffer): read-modify-write through the
    #: cache hierarchy, slower than a streaming kernel copy.
    app_copy_bw: float = 110.0


@dataclass
class NicParams:
    """LANai9.2-class NIC with a 200 MHz network processor."""

    #: Firmware occupancy to process one outbound frame (descriptor parse,
    #: header build, DMA schedule).
    tx_frame_us: float = 3.0
    #: Firmware occupancy to process one inbound frame (match, DMA schedule,
    #: completion write).
    rx_frame_us: float = 3.0
    #: Host PIO cost of ringing a doorbell (uncached PCI write).
    doorbell_us: float = 1.0
    #: NIC-side descriptor fetch across PCI.
    descriptor_fetch_us: float = 0.75
    #: Fixed per-DMA-transaction PCI setup cost (added to byte time).
    pci_per_dma_us: float = 0.5
    #: Measured PCI throughput of the testbed (Section 5: 450 MB/s).
    pci_bw: float = 450.0
    #: Number of address translations the on-board TLB holds. The paper's
    #: experiments "ensure that RDMA ... always hits in the NIC TLB"
    #: (Section 5.2), so the default is effectively unbounded; the NIC-TLB
    #: ablation bench shrinks it to realistic LANai SRAM sizes.
    tlb_entries: int = 1 << 20
    #: TLB miss service for ordinary (registered) RDMA: entry DMA'd from the
    #: host-resident TPT.
    tlb_miss_us: float = 15.0
    #: TLB miss during ORDMA: the host is interrupted and loads the entry by
    #: programmed I/O (Section 4.1). The paper measured "about 9 ms" in the
    #: prototype; experiments were arranged to always hit, and so are ours
    #: by default.
    tlb_miss_ordma_us: float = 9000.0
    #: Interrupt coalescing window: completions arriving within this window
    #: of a pending interrupt share it.
    interrupt_coalesce_us: float = 40.0
    #: Extra target-NIC latency of a GM *get* (rendezvous turnaround in the
    #: firmware). This is latency, not occupancy: concurrent gets pipeline.
    #: Calibrated to put the 4 KB ORDMA read at ~92 us (Table 3).
    get_turnaround_us: float = 26.0
    #: Firmware *occupancy* per served get (request parse + data-mover
    #: programming), serializing concurrent gets. Calibrated so a 4 KB-get
    #: ODAFS server tops out near the paper's ~225 MB/s rather than the
    #: raw 244 MB/s link limit (Fig. 7 / Section 5.2).
    get_occupancy_us: float = 11.2
    #: Target-NIC turnaround between the last DMA of a put and its ack
    #: becoming visible to the initiator. Raises RPC-direct response time
    #: (Table 3) without consuming host CPU or link bandwidth.
    put_ack_delay_us: float = 11.0
    #: Capability (keyed MAC) verification in firmware per ORDMA request.
    #: The paper's prototype did not implement capabilities; ours does, with
    #: a cost low enough to preserve the Table 3 calibration when enabled.
    capability_verify_us: float = 0.5


@dataclass
class NetworkParams:
    """2 Gb/s full-duplex Myrinet fabric."""

    #: Link rate: 2 Gb/s = 250 MB/s.
    link_bw: float = 250.0
    #: Propagation per hop.
    propagation_us: float = 0.3
    #: Switch forwarding latency (cut-through).
    switch_us: float = 1.0
    #: GM fragments data at 4 KB (Section 5).
    gm_mtu: int = 4 * KB
    #: GM per-frame header+trailer on the wire. 4096/(4196/250) = 244 MB/s,
    #: matching Table 2's GM/VI streaming bandwidth.
    gm_header_bytes: int = 100
    #: UDP/IP payload carried per fragment on the Ethernet emulation, whose
    #: MTU is 9 KB (Section 5.1: "performing data transfer in 8KB IP
    #: fragments").
    ip_fragment_payload: int = 8 * KB
    #: Ethernet + IP + UDP headers per fragment.
    eth_header_bytes: int = 58
    #: Reproduce the "performance bug in GM get" that kept 64 KB ODAFS
    #: transfers from saturating the link in Fig. 7. Off by default; when
    #: on, gets larger than 32 KB lose a firmware stall per fragment.
    emulate_gm_get_bug: bool = False
    #: Firmware stall per fragment when the GM-get bug emulation is on.
    gm_get_bug_stall_us: float = 20.0


@dataclass
class ProtocolParams:
    """RPC, VI, UDP and file-protocol processing costs."""

    #: Marshal/unmarshal an RPC header (client or server).
    rpc_marshal_us: float = 1.5
    #: Server-side file protocol processing per request: vnode lookup,
    #: permission check, cache probe, reply construction. Calibrated so a
    #: polling DAFS server tops out near 170 MB/s on 4 KB direct reads
    #: (Fig. 7): ~24 us total per I/O => 4096/24 ~= 170 MB/s.
    fs_op_us: float = 13.6
    #: Cost to construct and hand an RDMA descriptor to the NIC.
    rdma_issue_us: float = 2.5
    #: Kernel RPC layer extra work per request/response compared to the
    #: user-level DAFS client path (socket/vnode indirection). Applied to
    #: the NFS-family clients (Fig. 3/4: NFS hybrid burns more client CPU
    #: than DAFS despite both using RDMA).
    kernel_rpc_extra_us: float = 6.0
    #: Host-side UDP/IP stack cost per fragment (header processing;
    #: checksums are offloaded per Section 5).
    udp_frag_us: float = 7.0
    #: Additional NFS client protocol work per fragment (mbuf chains,
    #: buffer-cache stitching).
    nfs_frag_us: float = 6.0
    #: VI layer overhead per descriptor over raw GM (VI-GM is a thin
    #: mapping library).
    vi_overhead_us: float = 0.4
    #: Client file-cache bookkeeping per block (hit test, header update).
    client_cache_op_us: float = 1.5
    #: ODAFS directory probe/update per access.
    ordma_dir_op_us: float = 0.8
    #: Local (delegated) open or close in the client cache.
    delegated_open_us: float = 3.0
    #: PostMark-style per-transaction application work outside I/O
    #: (pathname handling, bookkeeping). Together with delegated open+close
    #: this forms the fixed per-transaction cost that compresses the raw
    #: 144-vs-92 us gap to the ~34% throughput gap of Fig. 6.
    app_txn_us: float = 22.0


@dataclass
class StorageParams:
    """Server file system and disk model (used by cold-cache ablations)."""

    #: Server file cache block size (matches client block size in Fig. 7).
    server_cache_block: int = 4 * KB
    #: Average disk access latency (seek + rotation) for a random block.
    disk_latency_us: float = 5000.0
    #: Sustained disk transfer bandwidth.
    disk_bw: float = 40.0
    #: Disk command processing overhead on the server CPU.
    disk_op_us: float = 10.0


@dataclass
class SchedParams:
    """Server admission control and request scheduling (multi-client runs).

    Models the kernel's bounded service-thread pool and accept queue: a
    loaded server adds queueing delay to response time (Section 2.3), and
    past the queue bound it must shed load explicitly. Off by default
    (``policy="none"``): single-client and legacy configurations keep the
    seed behavior of one concurrent task per request, bit for bit.
    """

    #: Request scheduling policy: "none" (no admission control, the seed
    #: behavior), "fifo" (one shared arrival queue), or "fair" (per-client
    #: queues served round-robin, DRR with unit quantum).
    policy: str = "none"
    #: Concurrent request handlers — the kernel service-thread (nfsd/dafsd
    #: worker) pool size. Arrivals beyond this wait in the accept queue.
    service_threads: int = 4
    #: Bounded accept/backlog queue depth; arrivals past it are rejected
    #: with an explicit busy reply (load shedding, not silent drop).
    max_queue: int = 64
    #: Server CPU cost to emit a rejection reply (header-only, no handler).
    reject_reply_us: float = 1.0
    #: Client-side backoff before retrying a rejected call: capped
    #: exponential, ``base * factor^(attempt-1)`` clamped to ``cap``,
    #: scaled by ``1 +- jitter`` from a seeded stream.
    reject_backoff_base_us: float = 150.0
    #: Exponential growth factor of the rejection backoff.
    reject_backoff_factor: float = 2.0
    #: Upper clamp on one rejection backoff delay.
    reject_backoff_cap_us: float = 5000.0
    #: Jitter fraction applied to each rejection backoff delay.
    reject_jitter: float = 0.1
    #: Rejection retries before the call surfaces an RPCError to the app.
    reject_max_retries: int = 24


@dataclass
class ShardParams:
    """Multi-server striping and client-side routing (scale-out runs).

    The paper's testbed stops at one server; these knobs configure the
    sharded continuation: files striped over ``n_servers``, each client
    holding one transport per server and routing block reads itself (the
    Storm-style client-driven dataplane that composes with ORDMA because
    both keep the server CPU out of the data path). ``n_servers=1`` (the
    default) is the paper configuration: :class:`repro.cluster.Cluster`
    then wires one server and plain clients, with no router.
    """

    #: Server count files are striped over.
    n_servers: int = 1
    #: Placement policy: "stripe" (static block striping, round-robin
    #: stripe units from a per-file seeded base) or "hash" (seeded
    #: consistent hashing of (file, stripe unit) over a virtual-node
    #: ring, so growing the server set moves only ~1/N of the blocks).
    placement: str = "stripe"
    #: Contiguous blocks per stripe unit (both policies place whole
    #: stripe units, not single blocks).
    stripe_blocks: int = 1
    #: Virtual nodes per server on the consistent-hash ring.
    hash_vnodes: int = 64
    #: Extra copies of every block, chained onto the next servers after
    #: the primary. 0 disables replication: a down shard is then a typed
    #: :class:`~repro.nas.shard.ShardDownError` instead of a failover.
    replicas: int = 0
    #: After a failover the router treats the shard as down for this
    #: long, then optimistically retries the primary (the crash-restart
    #: story: a restarted server serves again, cold).
    down_cooldown_us: float = 10_000.0


@dataclass
class IntegrityParams:
    """End-to-end block checksums and the background scrubber.

    Section 5 notes the testbed offloads checksums to the NIC; this block
    models what checksums *buy*: detection of silent corruption (disk bit
    rot, misdirected writes, in-flight ORDMA corruption) that every other
    fault path would pass through to the application as clean data. Off
    by default (``enabled=False``): the seed data path charges no
    checksum cost and performs no verification, bit for bit.

    When enabled, the server computes a per-block checksum at write (and
    cache warm) time, verifies blocks it serves over RPC, and attaches
    the expected checksum to every exported ORDMA reference so *clients*
    can verify direct reads the server CPU never sees.
    """

    #: Master switch: compute/verify block checksums end to end.
    enabled: bool = False
    #: Fixed CPU cost to dispatch one block checksum (setup + compare).
    checksum_op_us: float = 0.4
    #: Checksum throughput over the block payload, bytes/us. Software
    #: CRC32C on a P-III-class core; the NIC-offload configurations of
    #: Section 5 would raise this toward the copy bandwidth.
    checksum_bw: float = 1500.0
    #: Disk re-reads attempted for a block that failed verification
    #: before the server quarantines it (EINTEGRITY to the client).
    verify_retries: int = 2
    #: Background scrubber wake-up period in sim-us; 0 disables the
    #: scrubber (verification then happens only on reads).
    scrub_interval_us: float = 0.0
    #: Cached blocks verified per scrubber wake-up.
    scrub_blocks_per_pass: int = 8


@dataclass
class Params:
    """Aggregate testbed parameters (one per simulated experiment)."""

    host: HostParams = field(default_factory=HostParams)
    nic: NicParams = field(default_factory=NicParams)
    net: NetworkParams = field(default_factory=NetworkParams)
    proto: ProtocolParams = field(default_factory=ProtocolParams)
    storage: StorageParams = field(default_factory=StorageParams)
    sched: SchedParams = field(default_factory=SchedParams)
    shard: ShardParams = field(default_factory=ShardParams)
    integrity: IntegrityParams = field(default_factory=IntegrityParams)
    #: Master seed for every component RNG stream (determinism).
    seed: int = 2003

    def copy(self, **overrides) -> "Params":
        """Return a deep copy with optional top-level field replacements."""
        fields = {
            "host": replace(self.host),
            "nic": replace(self.nic),
            "net": replace(self.net),
            "proto": replace(self.proto),
            "storage": replace(self.storage),
            "sched": replace(self.sched),
            "shard": replace(self.shard),
            "integrity": replace(self.integrity),
            "seed": self.seed,
        }
        fields.update(overrides)
        return Params(**fields)


def default_params() -> Params:
    """The calibrated FAST'03 testbed."""
    return Params()
