"""Discrete-event simulation kernel.

The simulator advances virtual time in microseconds. Model code is written
as generator *processes* that ``yield`` events: timeouts, resource requests,
other processes, or composite conditions. A yielded event suspends the
process until the event triggers; a failed event raises its exception inside
the process at the yield point (this is how recoverable ORDMA network
exceptions reach client code).

The kernel is deterministic: simultaneous events fire in schedule order.

Hot-path design notes (every NIC doorbell, link frame, and RPC crosses
this loop, so per-hop constant factors dominate campaign wall-clock):

* **Fast lane**: events scheduled *at the current time* — trampolines,
  ``succeed()``/``fail()`` at ``now``, zero-delay timeouts — bypass the
  ``(time, seq)`` heap into a FIFO run-queue. This is safe because seq is
  globally monotonic: any heap entry whose time equals ``now`` was pushed
  *before* the clock reached ``now`` (at-now scheduling never touches the
  heap), so it carries a smaller seq than every run-queue entry, and the
  dispatch loop drains such heap entries first. Within the run-queue,
  FIFO order *is* seq order. Dispatch order is therefore exactly the old
  all-heap ``(time, seq)`` order, with no heap sift or entry tuple for
  the at-now majority of events.
* Process bootstrap, already-processed-target relays and
  :meth:`Simulator.call_at` calls use :class:`_Trampoline` events drawn
  from a per-simulator free list and recycled right after dispatch — the
  per-hop allocation churn of the old one-``Event``-per-resume scheme is
  gone. Trampolines are invisible outside the kernel, so recycling
  cannot be observed. A spawned task needs none: it is its own
  bootstrap event (see *Detached tasks*).
* :class:`Timeout` objects — the kernel's most-allocated type, one per
  modeled latency — are drawn from a second free list, and so is the
  completion of a ``Resource.hold`` that has to queue (pending until
  its grant schedules it). Unlike trampolines they *are* handed to
  model code, so a dispatched timeout is only recycled when
  ``sys.getrefcount`` proves the dispatch loop holds the last
  reference; a timeout the model still points at (held in a variable or
  parked in a condition) is simply left to the garbage collector.
  Recycling is therefore unobservable by construction.
* :meth:`Simulator.schedule_at` is the slim scheduling path: one seq
  bump and one push, no guard re-checks. ``succeed``/``fail``/
  ``Timeout`` inline their state flips around it.
* ``run()`` is the only dispatch loop: pop, dispatch and recycle are
  inlined in it, with no per-event method call.
* **Detached tasks**: work nothing waits on — a NIC receiving a frame or
  sending a message, an RPC being served — starts with
  :meth:`Simulator.spawn` instead of :meth:`Simulator.process`. Its
  bootstrap is the task object itself, put on the run queue with the
  seq a process's trampoline would draw at that moment, and there is no
  :class:`Process` object and no completion event. Only that event,
  which nothing could observe, goes; every other event keeps its
  ``(time, seq)`` order by construction, and ``sim._seq`` falls by one
  per finished task.
* **One event where there were several**: a CPU or firmware service is
  one ``Resource.hold``; a frame crossing the switch is one
  :meth:`Simulator.call_at` for its exit, scheduled when it is sent; a
  NIC send task starts from its descriptor fetch with
  :meth:`Simulator.spawn_after`, with no bootstrap. Each event lands at
  the time the steps it replaces reached, but draws its seq earlier than
  the last of them did, so the order among events due at one instant is
  kept by check, not by construction: seeded campaign outputs and
  digests are compared byte for byte against the commit before.

Apart from that last item, none of this changes event ordering: the
(time, seq) dispatch discipline and the points at which seq is drawn are
the old ones (run-queue entries draw seqs too). ``sim._seq`` falls by the
events that went — the seeded digest tests in
``tests/sim/test_core_runqueue.py`` pin it next to the simulated time.
"""

from __future__ import annotations

import heapq
from collections import deque
from sys import getrefcount as _getrefcount
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel itself."""


PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either with :meth:`succeed` (a
    value) or :meth:`fail` (an exception). Callbacks added before the
    trigger run when the simulator dispatches the event; callbacks added
    afterwards raise, because a one-shot event never fires again.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled",
                 "_deferred")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        #: True for events whose value is preset but which fire at a known
        #: *future* time (Timeout): they must not count as triggered yet.
        self._deferred = False

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING and not self._deferred

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not PENDING and not self._deferred:
            raise SimulationError("event already triggered")
        if self._scheduled:
            raise SimulationError("event already scheduled")
        self._value = value
        self._ok = True
        self._scheduled = True
        sim = self.sim
        sim._seq += 1
        sim._runq.append(self)  # fires at now: fast lane, no heap
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not PENDING and not self._deferred:
            raise SimulationError("event already triggered")
        if self._scheduled:
            raise SimulationError("event already scheduled")
        self._value = exc
        self._ok = False
        self._scheduled = True
        sim = self.sim
        sim._seq += 1
        sim._runq.append(self)  # fires at now: fast lane, no heap
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            raise SimulationError("event already processed; cannot add callback")
        self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.3f}>"


class _Trampoline(Event):
    """Kernel-internal single-callback event, pooled by the simulator.

    Used for process bootstrap, relays off already-processed targets and
    :meth:`Simulator.call_at` calls. Never handed to model code, so the
    simulator can reset and reuse the object (and its callback list)
    immediately after dispatch.
    """

    __slots__ = ()


def _call(event: _Trampoline) -> None:
    """Callback of a :meth:`Simulator.call_at` event: run ``fn(*args)``."""
    fn, args = event._value
    fn(*args)


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation.

    Prefer :meth:`Simulator.timeout`, which recycles dispatched timeout
    objects from a free list; direct construction always allocates.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + scheduling: timeouts are the kernel's
        # most-allocated object, one per modeled latency.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._deferred = True  # fires at now + delay, not now
        sim._seq += 1
        when = sim.now + delay
        if when == sim.now:
            sim._runq.append(self)  # zero-delay: fast lane
        else:
            _heappush(sim._heap, (when, sim._seq, self))

    def succeed(self, value: Any = None) -> "Event":
        raise SimulationError("Timeout triggers itself; do not call succeed()")

    def fail(self, exc: BaseException) -> "Event":
        raise SimulationError("Timeout triggers itself; do not call fail()")


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The process event succeeds with the generator's return value, or fails
    with the exception that escaped the generator. Waiting on a failed
    process re-raises that exception in the waiter.
    """

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off the process at the current simulation time.
        sim._trampoline(self._resume, None, True)

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._gen.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target.callbacks is None:
            # Already processed: resume immediately on a fresh trampoline.
            self.sim._trampoline(self._resume, target._value, target._ok)
        else:
            target.callbacks.append(self._resume)


class _Task(Event):
    """A generator started by :meth:`Simulator.spawn`, which nothing can
    wait on or name.

    An event only as its own bootstrap: :meth:`Simulator.spawn` puts the
    task on the run queue, loaded to resume the generator with ``None``,
    so a start costs no pooled trampoline. When the generator returns
    there is no completion to schedule, and an exception escaping it
    propagates out of the dispatch loop at once. Its loop is
    :meth:`Process._resume` without the completion event. The two stay
    separate short loops: a shared stepping routine costs every resume
    of both kinds one more Python call, and measured slower for both.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator):
        self.sim = sim
        self._gen = gen
        # Loaded to resume ``gen`` with None. Only spawn() gives the task
        # its callback and schedules it: a task started by spawn_after is
        # resumed by the event it waits on, and a callback list holding
        # the task's own method would keep it alive in a reference cycle.
        self.callbacks = None
        self._value = None
        self._ok = True
        self._scheduled = False
        self._deferred = False

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration:
            return
        if not isinstance(target, Event):
            self._gen.close()
            raise SimulationError(
                f"task {self._gen.__qualname__!r} yielded non-event "
                f"{target!r}")
        if target.callbacks is None:
            self.sim._trampoline(self._resume, target._value, target._ok)
        else:
            target.callbacks.append(self._resume)


def _delivered(event: Event) -> None:
    """Callback of a failed child a condition has already reported."""


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        #: Children whose completion this condition still awaits; counted
        #: down in ``_check`` so fan-in is O(1) per child trigger.
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None or ev.triggered:
                # Already triggered: account for it via an immediate check.
                self._check(ev)
                if ev._ok is False and ev.callbacks is not None:
                    # Failed but not yet dispatched: this condition
                    # reports the failure, so it is not a lost error.
                    ev.callbacks.append(_delivered)
            else:
                ev.add_callback(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _results(self) -> dict:
        return {ev: ev._value for ev in self.events if ev.triggered and ev._ok}


class AllOf(Condition):
    """Succeeds when all child events succeed; fails on the first failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._pending -= 1
        if not self._pending:
            # Every membership succeeded, so the filtered scan of
            # Condition._results (triggered/_ok property checks per
            # child) collapses to one comprehension in `events` order —
            # the exact dict the filtered scan would have built.
            self.succeed({ev: ev._value for ev in self.events})


class AnyOf(Condition):
    """Succeeds when any child event succeeds; fails if one fails first."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._pending -= 1
        self.succeed(self._results())


class Simulator:
    """The event loop. Time is in microseconds (float)."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List = []
        #: FIFO fast lane for events scheduled at the current time; always
        #: holds strictly larger seqs than any at-now heap entry.
        self._runq: Deque[Event] = deque()
        self._seq = 0
        self._running = False
        #: Free list of recycled kernel trampolines (see _Trampoline).
        self._trampolines: List[_Trampoline] = []
        #: Free list of recycled Timeout objects (see Simulator.timeout).
        self._timeouts: List[Timeout] = []
        #: Optional structured-event tracer (see repro.sim.trace.Tracer).
        self.tracer = None

    # -- scheduling ------------------------------------------------------

    def schedule_at(self, event: Event, when: float) -> None:
        """Slim path: push ``event`` to fire at absolute time ``when``.

        No state checks — the caller guarantees the event is untriggered
        and unscheduled, and that ``when >= now``. ``when == now`` takes
        the run-queue fast lane; this is the single place the
        (time, seq, event) heap entry is built for kernel-internal
        scheduling.
        """
        event._scheduled = True
        self._seq += 1
        if when <= self.now:
            self._runq.append(event)
        else:
            _heappush(self._heap, (when, self._seq, event))

    def _pooled(self, callback: Callable[[Event], None], value: Any,
                ok: bool) -> "_Trampoline":
        """A trampoline from the free list, loaded but not scheduled."""
        pool = self._trampolines
        if pool:
            tramp = pool.pop()
        else:
            tramp = _Trampoline(self)
        tramp.callbacks.append(callback)
        tramp._value = value
        tramp._ok = ok
        return tramp

    def _trampoline(self, callback: Callable[[Event], None], value: Any,
                    ok: bool) -> None:
        """Schedule ``callback`` for the current time on a pooled event."""
        tramp = self._pooled(callback, value, ok)
        tramp._scheduled = True
        self._seq += 1
        self._runq.append(tramp)

    def _recycle(self, tramp: "_Trampoline",
                 callbacks: List[Callable[[Event], None]]) -> None:
        """Reset a dispatched trampoline (and its list) for reuse."""
        callbacks.clear()
        tramp.callbacks = callbacks
        tramp._value = PENDING
        tramp._ok = None
        tramp._scheduled = False
        self._trampolines.append(tramp)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` microseconds from now.

        Draws from the timeout free list when possible; see the module
        docstring for why recycling is unobservable.
        """
        pool = self._timeouts
        if not pool:
            return Timeout(self, delay, value)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        t = pool.pop()
        t._value = value
        t._ok = True
        t._scheduled = True
        t._deferred = True
        self._seq += 1
        when = self.now + delay
        if when == self.now:
            self._runq.append(t)
        else:
            _heappush(self._heap, (when, self._seq, t))
        return t

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start ``gen`` as a process at the current time.

        The returned :class:`Process` is an event that fires when the
        generator finishes, for callers that wait on it.
        Start work nothing waits on with :meth:`spawn` instead.
        """
        return Process(self, gen, name=name)

    def spawn(self, gen: Generator) -> None:
        """Start ``gen`` at the current time as a detached task.

        The first step runs exactly where :meth:`process` would run it:
        from one bootstrap on the run queue, drawn now. The bootstrap is
        the task itself, not a pooled trampoline. There is no handle, so
        no :class:`Process` object and no completion event, and
        ``sim._seq`` ends one lower per task that finishes. An exception
        escaping ``gen`` is nobody's to catch: it propagates out of
        :meth:`run` at once, with its own type. Yielding a non-event
        raises :class:`SimulationError` naming the generator.
        """
        task = _Task(self, gen)
        task.callbacks = [task._resume]
        task._scheduled = True
        self._seq += 1
        self._runq.append(task)

    def spawn_after(self, event: Event, gen: Generator) -> None:
        """Start ``gen`` as a detached task when ``event`` fires.

        The first step runs in ``event``'s own dispatch, so the task costs
        no bootstrap: ``spawn_after(sim.timeout(d), gen)`` is one kernel
        event where ``spawn`` of a generator whose first statement yields
        that timeout is two. ``event`` must not have fired yet, and must
        succeed with ``None`` (a fresh generator takes no other value).
        Otherwise the task behaves as one started by :meth:`spawn`.
        """
        event.add_callback(_Task(self, gen)._resume)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires when every child event has succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that fires when the first child event succeeds."""
        return AnyOf(self, events)

    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (>= now).

        The call lands on exactly ``when``; ``timeout(when - now)`` lands
        on ``now + (when - now)``, which rounding can move off ``when``.
        One pooled kernel event, recycled after dispatch, so there is no
        handle to wait on.
        """
        if when < self.now:
            raise SimulationError(f"call_at in the past: {when} < {self.now}")
        self.schedule_at(self._pooled(_call, (fn, args), True), when)

    # -- execution -------------------------------------------------------

    def run(self) -> None:
        """Dispatch events in ``(time, seq)`` order until none is left."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        runq = self._runq
        timeouts = self._timeouts
        try:
            while True:
                if runq:
                    if heap and heap[0][0] <= self.now:
                        # Equal-time heap entries predate (and out-rank)
                        # every run-queue entry.
                        event = _heappop(heap)[2]
                    else:
                        event = runq.popleft()
                elif heap:
                    self.now, _seq, event = _heappop(heap)
                else:
                    return
                event._deferred = False
                callbacks = event.callbacks
                event.callbacks = None
                for fn in callbacks:
                    fn(event)
                if event._ok is False and not callbacks:
                    # A failed event nobody waited for is a lost error;
                    # surface it.
                    raise event._value
                cls = type(event)
                if cls is _Trampoline:
                    self._recycle(event, callbacks)
                elif cls is Timeout and _getrefcount(event) == 2:
                    # The dispatch loop holds the last reference — the
                    # model let go of this timeout, so recycling it
                    # cannot be observed.
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = PENDING
                    event._ok = None
                    event._scheduled = False
                    timeouts.append(event)
        finally:
            self._running = False

    def run_process(self, gen: Generator) -> Any:
        """Convenience: run ``gen`` to completion and return its value."""
        proc = self.process(gen)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={self.now}"
            )
        if not proc._ok:
            raise proc._value
        return proc._value
