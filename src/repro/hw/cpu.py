"""CPU model: a priority-served single core with utilization accounting.

Per the paper's overhead equation (Section 2.2), host overhead is
``o(m) = m * o_per_byte + o_per_I/O``; the CPU model realizes both terms:
copies charge per-byte time (:meth:`CPU.copy`), protocol and interrupt work
charges per-I/O time (:meth:`CPU.execute`). Interrupt work preempts at
request boundaries via priority queueing, matching the microsecond-scale
service quanta of the modelled code paths.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator

from ..params import HostParams
from ..sim import BusyTracker, Resource, Simulator, rate_probe

#: Priority levels (lower value is served first).
PRIO_INTERRUPT = 0
PRIO_KERNEL = 1
PRIO_NORMAL = 2


class CPU:
    """One processor. All charged work passes through a priority queue."""

    def __init__(self, sim: Simulator, params: HostParams, name: str = "cpu"):
        self.sim = sim
        self.params = params
        self.name = name
        self._core = Resource(sim, name=name)
        self.busy = BusyTracker(sim, name=name)
        self._last_interrupt_at = -1e18

    # -- work charging ---------------------------------------------------

    def execute(self, cost_us: float, category: str = "proto",
                priority: int = PRIO_NORMAL) -> Generator:
        """Charge ``cost_us`` of CPU time. Yields until the work is done."""
        if cost_us < 0:
            raise ValueError(f"negative CPU cost: {cost_us}")
        if cost_us == 0:
            return
        yield self._core.hold(cost_us, priority)
        self.busy.add(cost_us, category)

    def copy(self, nbytes: int, cached: bool = True) -> Generator:
        """Charge a memory copy of ``nbytes``.

        ``cached=False`` uses the slower buffer-cache copy bandwidth (cold,
        cache-polluting destinations) — the dominant cost in standard NFS.
        """
        bw = (self.params.copy_bw_cached if cached
              else self.params.copy_bw_uncached)
        yield from self.execute(nbytes / bw, category="copy")

    # -- canned kernel paths ----------------------------------------------

    def interrupt(self, coalesce_window_us: float = 0.0) -> Generator:
        """Take a hardware interrupt.

        If a previous interrupt fired within ``coalesce_window_us``, the
        entry/exit cost is skipped: the handler batches completions.
        """
        now = self.sim.now
        if now - self._last_interrupt_at >= coalesce_window_us:
            self._last_interrupt_at = now
            yield from self.execute(self.params.interrupt_us,
                                    category="interrupt",
                                    priority=PRIO_INTERRUPT)

    def wakeup(self) -> Generator:
        """Scheduler wakeup + context switch to a blocked thread."""
        yield from self.execute(self.params.wakeup_us, category="sched",
                                priority=PRIO_KERNEL)

    def poll(self) -> Generator:
        """One poll of a completion queue."""
        yield from self.execute(self.params.poll_us, category="poll")

    def syscall(self) -> Generator:
        """User/kernel boundary crossing."""
        yield from self.execute(self.params.syscall_us, category="syscall")

    # -- measurement -------------------------------------------------------

    def reset_measurement(self) -> None:
        self.busy.reset_window()

    def utilization(self) -> float:
        return self.busy.window_utilization()

    def gauges(self) -> Dict[str, Callable[[], float]]:
        """Telemetry probes for a :class:`~repro.sim.TimeSeriesSampler`.

        Windowed utilization (busy-us rate over the sampling interval),
        total and split into the paper's Fig. 4 accounting: data copies,
        interrupt handling, and everything else (protocol + kernel work).
        """
        busy = self.busy
        cats = busy.by_category

        def other() -> float:
            return (busy.busy_us - cats.get("copy", 0.0)
                    - cats.get("interrupt", 0.0))

        return {
            "util": rate_probe(self.sim, lambda: busy.busy_us),
            "util.copy": rate_probe(self.sim,
                                    lambda: cats.get("copy", 0.0)),
            "util.interrupt": rate_probe(self.sim,
                                         lambda: cats.get("interrupt", 0.0)),
            "util.proto": rate_probe(self.sim, other),
            "queue": lambda: float(self._core.queue_len),
        }
