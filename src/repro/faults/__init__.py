"""Deterministic fault injection and resilience for the NAS testbed.

The paper's optimistic RDMA is built on *recoverable failure* (Section
4.1): a stale remote reference faults at the server NIC and the client
falls back to RPC. This package generalizes that discipline to every
layer of the model so graceful degradation becomes a measurable curve
rather than an untested claim:

* :class:`FaultSchedule` — declarative absolute fire times (the
  ``shard`` campaign's scripted crash).
* Layer adapters (:mod:`repro.faults.adapters`) — per-component fault
  state the hardware models consult on their hot paths: link frame
  drop and delay, NIC doorbell stalls, forced ORDMA rejections and
  silent ORDMA corruption, disk I/O errors, latency spikes, bit rot and
  misdirected writes, server crash/restart with file-cache loss. Every
  probabilistic mode draws from a named :class:`repro.sim.RandomStreams`
  stream, so campaigns are bit-reproducible under a fixed seed.
* :class:`Injector` — wires adapters into one :class:`repro.cluster.
  Cluster`, arms schedules, and turns on the client resilience layer
  (RPC timeout/retransmit, initiator-side RDMA timeouts).

Every hook is a ``None``-guarded attribute check: with no injector
attached, simulations are bit-identical to a build without this package.
"""

from .adapters import DiskFaults, LinkFaults, NicFaults, ServerFaults
from .injector import Injector
from .schedule import FaultSchedule

__all__ = [
    "DiskFaults",
    "FaultSchedule",
    "Injector",
    "LinkFaults",
    "NicFaults",
    "ServerFaults",
]
