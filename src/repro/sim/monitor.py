"""Measurement instruments: utilization, latency, and event counters.

Every figure in the paper is either a throughput, a CPU utilization, or a
response time; these classes are the common read-out path for all of them.
Meters support a *measurement window* so warm-up passes (e.g. the first pass
of the Table 3 microbenchmark) can be excluded, exactly as the paper does.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional

from .core import Simulator

#: Fixed log2 histogram bucket upper edges in microseconds: 1, 2, 4, ...,
#: 2^20 (~1.05 s). Samples above the last edge land in the overflow
#: bucket. Fixed edges keep histograms mergeable across runs and let
#: :meth:`LatencyStats.summary` report a distribution without sorting
#: the retained sample list.
HIST_EDGES_US = tuple(float(1 << k) for k in range(21))

#: Bucket labels aligned with ``HIST_EDGES_US`` plus the overflow bucket.
HIST_LABELS = tuple(f"le_{int(edge)}" for edge in HIST_EDGES_US) + ("inf",)


class BusyTracker:
    """Accumulates busy time, optionally split by category.

    Used by the CPU model for utilization figures (Fig. 4) and by the
    server CPU accounting in the PostMark experiment (Fig. 6).
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self.busy_us = 0.0
        self.by_category: Dict[str, float] = {}
        self._window_start = 0.0
        self._window_busy_mark = 0.0

    def add(self, duration_us: float, category: str = "other") -> None:
        if duration_us < 0:
            raise ValueError(f"negative busy duration: {duration_us}")
        self.busy_us += duration_us
        self.by_category[category] = self.by_category.get(category, 0.0) + duration_us

    def reset_window(self) -> None:
        """Start a fresh measurement window at the current time."""
        self._window_start = self.sim.now
        self._window_busy_mark = self.busy_us

    def window_utilization(self) -> float:
        """Fraction of time busy since the last :meth:`reset_window`."""
        elapsed = self.sim.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.busy_us - self._window_busy_mark) / elapsed)

    def utilization(self) -> float:
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_us / self.sim.now)


class LatencyStats:
    """Streaming response-time statistics (Table 3, PostMark latencies).

    Count, mean and max are maintained as running aggregates over every
    recorded sample; percentiles (``percentile(0)`` is the minimum) come
    from the samples themselves. The sorted view used by
    :meth:`percentile` is cached behind a dirty flag, so repeated
    percentile queries do not re-sort.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List[float] = []
        self.reset()

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ValueError(f"negative latency: {latency_us}")
        self._count += 1
        self._sum += latency_us
        if latency_us > self._max:
            self._max = latency_us
        self._hist[bisect.bisect_left(HIST_EDGES_US, latency_us)] += 1
        self._samples.append(latency_us)
        self._sorted = None

    def reset(self) -> None:
        self._samples.clear()
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self._sum = 0.0
        self._max = -math.inf
        self._hist = [0] * len(HIST_LABELS)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not self._samples:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def histogram(self) -> Dict[str, int]:
        """Occupied log2 buckets, labelled ``le_<edge-us>`` (plus ``inf``
        for overflow)."""
        return {label: count
                for label, count in zip(HIST_LABELS, self._hist) if count}

    def summary(self) -> Dict[str, float]:
        """The registry/JSON-friendly read-out."""
        return {"count": self._count, "mean": self.mean,
                "p50": self.percentile(50), "p95": self.percentile(95),
                "p99": self.percentile(99), "max": self.maximum,
                "hist": self.histogram()}


class Counter:
    """Named integer counters with a tiny dict interface."""

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def reset(self) -> None:
        self._counts.clear()

    def incr(self, key: str, by: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + by

    def get(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def hit_ratio(self) -> float:
        """``hits / (hits + misses)``; 0.0 before the first lookup."""
        hits = self.get("hits")
        total = hits + self.get("misses")
        return hits / total if total else 0.0
