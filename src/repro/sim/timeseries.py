"""Continuous telemetry: sim-time gauge sampling into ring buffers.

The span machinery (:mod:`repro.sim.trace`) answers *how long one request
took, stage by stage*; this module answers the complementary resource
question — *what was each component doing over time* — which is exactly
the evidence behind the paper's attribution claims (Fig. 4's client CPU
curves, Fig. 7's server-CPU-out-of-the-data-path argument).

A :class:`TimeSeriesSampler` owns a set of named *gauge probes* — zero
argument callables returning a float — and snapshots all of them on a
fixed simulated-time interval into per-series ring buffers. Sampling is
strictly off by default: nothing is scheduled until :meth:`start`, so an
un-started sampler costs zero events and leaves seeded runs bit-identical.

Probes come in three flavors:

* plain gauges — instantaneous state (queue depth, cache blocks);
* :func:`rate_probe` — wraps a *cumulative* counter (busy microseconds,
  bytes DMA'd) and reports its per-microsecond rate over the window since
  the previous sample, which for busy-time counters is exactly windowed
  utilization;
* :func:`ratio_probe` — the windowed ratio of two cumulative counters
  (hit rate over the last interval, not since boot).

The series are saved in the tracer's JSONL, one line per series:
``Tracer.dump_jsonl(path, series=sampler.series)``, and
:func:`repro.sim.trace.load_jsonl` returns them as ``TraceDump.series``.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Deque, Dict, Generator, Iterator, List,
                    Optional, Sequence, Tuple)

from .core import Event, Simulator

GaugeFn = Callable[[], float]

#: Points each series keeps; older ones drop (``TimeSeries.dropped``
#: counts them, and a trace dump's series lines carry it).
CAPACITY = 8192


def rate_probe(sim: Simulator, cumulative: GaugeFn,
               scale: float = 1.0) -> GaugeFn:
    """Wrap a cumulative counter as a windowed per-microsecond rate gauge.

    Each call reports ``scale * delta(value) / delta(time)`` since the
    probe's previous call — under sampler control, the rate over the last
    sampling interval. A busy-time counter therefore yields utilization
    in [0, 1]; a byte counter yields B/us (== MB/s). Zero-elapsed calls
    (including a query at the probe's creation instant) return 0.0.

    An unchanged source short-circuits: the rate is exactly 0.0 over any
    window, so only the window anchor moves and the subtraction/division
    arithmetic is skipped — most gauge sources are idle on most sampler
    ticks, which is what makes continuous telemetry affordable.
    """
    state = [sim.now, float(cumulative())]

    def probe() -> float:
        value = float(cumulative())
        prev_t, prev_v = state
        now = sim.now
        state[0] = now
        if value == prev_v:
            return 0.0  # source unchanged since the last sample
        state[1] = value
        if now <= prev_t:
            return 0.0
        return (value - prev_v) * scale / (now - prev_t)

    return probe


def ratio_probe(numerator: GaugeFn, denominator: GaugeFn) -> GaugeFn:
    """Windowed ratio of two cumulative counters (e.g. cache hit rate).

    Reports ``delta(num) / delta(den)`` since the previous call; windows
    with no denominator activity report 0.0 rather than dividing by zero.
    An unchanged denominator short-circuits the same way an unchanged
    :func:`rate_probe` source does.
    """
    state = [float(numerator()), float(denominator())]

    def probe() -> float:
        den = float(denominator())
        if den == state[1]:
            # No denominator activity in the window: ratio is 0.0 and the
            # numerator anchor still has to advance for the next window.
            state[0] = float(numerator())
            return 0.0
        num = float(numerator())
        d_num, d_den = num - state[0], den - state[1]
        state[0], state[1] = num, den
        return d_num / d_den if d_den > 0 else 0.0

    return probe


def window_mean(points: Sequence[Tuple[float, float]], t0: float,
                t1: float) -> Optional[float]:
    """Mean of the sample values with ``t0 <= ts <= t1``; None if none."""
    total = 0.0
    count = 0
    for ts, value in points:
        if t0 <= ts <= t1:
            total += value
            count += 1
    return total / count if count else None


class TimeSeries:
    """One gauge's ring-buffered (timestamp, value) history."""

    __slots__ = ("name", "points", "appended")

    def __init__(self, name: str):
        self.name = name
        self.points: Deque[Tuple[float, float]] = deque(maxlen=CAPACITY)
        #: Total points ever appended; the ring evicts the overflow, so
        #: ``dropped`` is derived instead of checked on every append.
        self.appended = 0

    @property
    def dropped(self) -> int:
        return max(0, self.appended - self.points.maxlen)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(self.points)

    @property
    def last(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

    def mean(self) -> Optional[float]:
        return window_mean(self.points, 0.0, float("inf"))


class TimeSeriesSampler:
    """Snapshots registered gauges on a fixed sim-time interval.

    Off by default: construction registers nothing with the simulator.
    :meth:`start` spawns the sampling daemon. Like the VM-pressure and
    scrub daemons it requires a ``stop_on`` event (typically the
    workload's process), so the event heap can drain once the measured
    run is over.
    """

    def __init__(self, sim: Simulator, interval_us: float = 50.0):
        if interval_us <= 0:
            raise ValueError(f"interval must be positive: {interval_us}")
        self.sim = sim
        self.interval_us = interval_us
        #: Probes in registration order; sampled in exactly this order.
        self._probes: Dict[str, GaugeFn] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.ticks = 0
        self._running = False
        #: Compiled (series, ring-append, probe) rows — the per-tick loop
        #: skips every dict and method lookup; rebuilt on registration.
        self._plan: Optional[List[Tuple[TimeSeries, Callable, GaugeFn]]] \
            = None

    # -- registration ------------------------------------------------------

    def probe(self, name: str, fn: GaugeFn) -> None:
        """Register gauge ``fn`` under dotted ``name``."""
        if not name:
            raise ValueError("probe name must be non-empty")
        if name in self._probes:
            raise ValueError(f"probe {name!r} already registered")
        self._probes[name] = fn
        self.series[name] = TimeSeries(name)
        self._plan = None  # recompile on next sample

    def probe_many(self, prefix: str, gauges: Dict[str, GaugeFn]) -> None:
        """Register a component's gauge dict under ``prefix.<key>``."""
        for key, fn in gauges.items():
            self.probe(f"{prefix}.{key}", fn)

    def __len__(self) -> int:
        return len(self._probes)

    # -- sampling ----------------------------------------------------------

    def start(self, stop_on: Event) -> None:
        """Spawn the sampling daemon, which samples every interval until
        ``stop_on`` has triggered (idempotent start is an error)."""
        if self._running:
            raise RuntimeError("sampler already running")
        self._running = True
        self.sim.spawn(self._daemon(stop_on))

    def _daemon(self, stop_on: Event) -> Generator:
        while True:
            yield self.sim.timeout(self.interval_us)
            if stop_on.triggered:
                return
            self.sample_once()

    def sample_once(self) -> None:
        """Take one snapshot of every probe at the current sim time.

        Runs off a compiled plan: one bound ``deque.append`` and one probe
        call per series, with no per-sample dict lookup or method frame —
        this loop runs probes x ticks times, the telemetry hot path.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = [
                (series, series.points.append, self._probes[name])
                for name, series in self.series.items()]
        now = self.sim.now
        for series, append, fn in plan:
            series.appended += 1
            append((now, float(fn())))
        self.ticks += 1

    # -- read-out ----------------------------------------------------------

    @property
    def dropped(self) -> int:
        return sum(s.dropped for s in self.series.values())

    def as_dict(self) -> Dict[str, Any]:
        """Flat registry read-out: ring accounting plus last values."""
        out: Dict[str, Any] = {
            "ticks": self.ticks,
            "interval_us": self.interval_us,
            "series": len(self.series),
            "dropped": self.dropped,
        }
        for name, series in self.series.items():
            if series.points:
                out[f"last.{name}"] = series.last
        return out
