"""Shared-resource primitives built on the event kernel.

These model contended hardware: CPUs (priority resources), DMA engines and
firmware processors (FIFO resources), buses and links (bandwidth pipes), and
mailbox-style queues between components (stores).

A service of known length, such as the per-I/O CPU cost ``o_io`` of the
paper's overhead model or one NIC firmware step, is one
:meth:`Resource.hold`: a single kernel event whether or not it queues.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, List, Optional

from .core import Event, SimulationError, Simulator, Timeout


class Request(Event):
    """A pending claim on a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource


class Resource:
    """A server that one claim holds at a time, with a FIFO (or priority)
    queue.

    A service of known length is one call from a process::

        yield resource.hold(service_time, priority)

    A claim that spans more than one wait (the disk holds its spindle
    across a fault-injected delay) takes and returns the resource itself,
    queued at priority 0::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(req)

    Both kinds of claim wait in one ``(priority, seq)`` heap, so they are
    served in the same order whichever a caller uses.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        #: The claim being served: a granted request or a running hold.
        self._holder: Optional[Event] = None
        #: Heap of (priority, seq, claim, duration); duration is None for
        #: a request() and the service time for a hold().
        self._queue: List = []
        self._seq = 0

    @property
    def count(self) -> int:
        """1 while a claim holds the resource, else 0."""
        return 0 if self._holder is None else 1

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def request(self) -> Request:
        req = Request(self)
        if self._holder is None:
            self._holder = req
            req.succeed(req)
        else:
            self._seq += 1
            heappush(self._queue, (0, self._seq, req, None))
        return req

    def hold(self, duration: float, priority: int = 0) -> Event:
        """Hold the resource for ``duration`` µs; the event fires when the
        service ends.

        On an idle resource the completion is scheduled at once; a busy
        one queues the claim with :meth:`request`'s and schedules the
        completion ``duration`` after the grant. Either way the service
        costs one kernel event and wakes the holder once. The completion
        frees the resource and grants the next claim before the holder
        resumes.

        The completion is a :class:`Timeout`. A queued one is taken from
        the kernel's free list, where it waits pending (not
        ``triggered``) until its grant schedules it, and goes back there
        once dispatched like any timeout the model let go of.
        """
        if duration < 0:
            raise SimulationError(f"negative hold duration: {duration}")
        sim = self.sim
        if self._holder is None:
            done: Event = sim.timeout(duration)
            self._holder = done
        else:
            pool = sim._timeouts
            if pool:
                done = pool.pop()
            else:
                done = Timeout.__new__(Timeout)
                Event.__init__(done, sim)
            self._seq += 1
            heappush(self._queue, (priority, self._seq, done, duration))
        done.callbacks.append(self._finish)
        return done

    def release(self, req: Request) -> None:
        if req is not self._holder:
            raise SimulationError("release of a request that does not hold "
                                  "the resource")
        self._finish(req)

    def _finish(self, done: Event) -> None:
        """Completion callback of a hold, and the end of a request: hand
        the resource to the first waiting claim, or free it."""
        if not self._queue:
            self._holder = None
            return
        _prio, _seq, claim, duration = heappop(self._queue)
        self._holder = claim
        if duration is None:
            claim.succeed(claim)
        else:
            # A granted hold: its value is set but, like a Timeout, it
            # stays pending (_deferred) until dispatched.
            claim._value = None
            claim._ok = True
            claim._deferred = True
            sim = self.sim
            sim.schedule_at(claim, sim.now + duration)


class Store:
    """An unbounded FIFO channel of items between processes."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class BandwidthPipe:
    """A serialized transmission medium with fixed bandwidth.

    Transfers queue FIFO; each occupies the pipe for ``nbytes / bandwidth``
    plus an optional fixed per-transfer overhead. This models link
    serialization, DMA engines, and bus occupancy. Bandwidth is in bytes
    per microsecond (i.e. MB/s ≈ B/µs).

    :meth:`transfer` returns an event for a process to wait on (the PCI
    bus). :meth:`reserve` and :meth:`reserve_cut_through` take the same
    occupancy and return the delay instead, for a caller that schedules
    its own next step: the switch, which carries a frame across the
    fabric in one kernel event.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bpus: float,
        name: str = "",
        per_transfer_us: float = 0.0,
    ):
        if bandwidth_bpus <= 0:
            raise SimulationError(f"bandwidth must be positive: {bandwidth_bpus}")
        self.sim = sim
        self.bandwidth = bandwidth_bpus
        self.name = name
        self.per_transfer_us = per_transfer_us
        self._free_at = float("-inf")  # idle since forever
        self.stats_bytes = 0
        self.stats_transfers = 0
        self.stats_busy_us = 0.0

    def occupancy(self, nbytes: int) -> float:
        return self.per_transfer_us + nbytes / self.bandwidth

    def _charge(self, nbytes: int) -> float:
        """Count one transfer of ``nbytes``; returns its occupancy."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        duration = self.occupancy(nbytes)
        self.stats_bytes += nbytes
        self.stats_transfers += 1
        self.stats_busy_us += duration
        return duration

    def reserve(self, nbytes: int) -> float:
        """Queue ``nbytes`` behind what the pipe has taken on; returns the
        µs from now until they have moved."""
        now = self.sim.now
        self._free_at = max(now, self._free_at) + self._charge(nbytes)
        return self._free_at - now

    def transfer(self, nbytes: int) -> Event:
        """Return an event that fires when ``nbytes`` have moved."""
        return self.sim.timeout(self.reserve(nbytes))

    def reserve_cut_through(self, nbytes: int) -> float:
        """Drain-side transfer whose bits streamed in while upstream sent;
        returns the µs from now until it has drained.

        Models the receive leg of a cut-through fabric: if this pipe was
        idle while the sender serialized (a window of one occupancy ending
        now), the delay is 0.0; otherwise the transfer queues behind the
        one in progress and pays full serialization. Occupancy is
        accounted either way, so converging senders contend correctly.
        """
        now = self.sim.now
        self._free_at = max(now, self._free_at + self._charge(nbytes))
        return self._free_at - now

    def backlog_bytes(self) -> float:
        """Bytes still waiting to serialize (instantaneous queue gauge).

        The pipe is committed through ``_free_at``; anything beyond *now*
        is backlog expressed in bytes at the pipe's rate. Idle pipes
        report 0.0.
        """
        pending_us = self._free_at - self.sim.now
        if pending_us <= 0:
            return 0.0
        return pending_us * self.bandwidth
