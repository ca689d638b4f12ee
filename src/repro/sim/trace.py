"""Structured event tracing and end-to-end request spans.

A :class:`Tracer` attached to the simulator (``sim.tracer``) records
timestamped, typed events from instrumented components — NIC operations,
RPC activity, ORDMA faults, cache hits, link and disk I/O — into a bounded
ring buffer. It also hands out :class:`Span` objects: one span follows a
single request from the client call site through RPC marshaling, the NIC
doorbell/DMA path, link transmission, server CPU, server file cache and
disk, recording a timestamped stage boundary at each hop. A completed
span folds into a per-stage critical-path latency breakdown that mirrors
the paper's overhead decomposition (Table 2 / Fig. 2).

Tracing is off unless a tracer is attached, and emit sites guard with a
single attribute check, so the instrumented hot paths cost nothing in
normal runs.

Typical use::

    tracer = Tracer.attach(cluster.sim)
    sampler = cluster.attach_sampler()  # optional telemetry
    ... run workload ...
    for ev in tracer.filter("ordma-fault"):
        print(ev)
    for span in tracer.spans:
        print(span.rid, span.path, span.breakdown())
    tracer.dump_jsonl("trace.jsonl", series=sampler.series)
    dump = load_jsonl("trace.jsonl")   # events, spans and sampled series
    dump.series["server.cpu.util"]     # [(ts, value), ...]

One file carries what ``repro-bench trace --input`` needs to name each
data path's dominant resource and to export counter tracks.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from typing import (Any, Deque, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

from .core import Simulator
from .timeseries import TimeSeries

#: Events and spans each ring keeps; older ones drop (``dropped`` counts
#: the events lost, and a dump's header carries it).
CAPACITY = 100_000

#: Marker values for the non-event JSONL line kinds.
HEADER_KIND = "trace-header"
SPAN_KIND = "trace-span"
SERIES_KIND = "trace-series"


class TraceEvent:
    """One timestamped occurrence."""

    __slots__ = ("ts", "component", "kind", "detail")

    def __init__(self, ts: float, component: str, kind: str,
                 detail: Dict[str, Any]):
        self.ts = ts
        self.component = component
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        fields = " ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"[{self.ts:12.3f}us] {self.component} {self.kind} {fields}"

    def as_dict(self) -> Dict[str, Any]:
        return {"ts": self.ts, "component": self.component,
                "kind": self.kind, **self.detail}


class Span:
    """One request's journey across the layers.

    A span is created at the client call site (:meth:`Tracer.start_span`)
    and threaded through the request path; each layer appends a
    *stage boundary* with :meth:`mark`. A mark's label names the stage
    that just *completed*, so the interval between consecutive marks is
    the stage's critical-path contribution and :meth:`breakdown` sums
    exactly to the end-to-end latency.

    ``path`` classifies the data path the request actually took:
    ``rpc`` (inline RPC), ``rdma`` (RPC + NIC-placed data), ``ordma``
    (client-initiated optimistic RDMA), ``ordma-fallback`` (ORDMA
    faulted, recovered through RPC), or ``local`` (client cache hit,
    no network).
    """

    __slots__ = ("rid", "op", "origin", "path", "start_ts", "end_ts",
                 "marks", "detail", "_sim")

    def __init__(self, sim: Optional[Simulator], rid: int, op: str,
                 origin: str, detail: Optional[Dict[str, Any]] = None):
        self._sim = sim
        self.rid = rid
        self.op = op
        self.origin = origin
        self.path = "rpc"
        self.start_ts = sim.now if sim is not None else 0.0
        self.end_ts: Optional[float] = None
        #: [(ts, component, stage, detail-or-None), ...] in time order.
        self.marks: List[Tuple[float, str, str, Optional[Dict]]] = []
        self.detail = detail or {}

    # -- recording ---------------------------------------------------------

    def mark(self, component: str, stage: str, **detail: Any) -> None:
        """Record a stage boundary: ``stage`` just completed at ``now``."""
        self.marks.append((self._sim.now, component, stage,
                           detail or None))

    def finish(self, component: Optional[str] = None) -> "Span":
        """Close the span; the remaining interval becomes ``deliver``."""
        self.mark(component or self.origin, "deliver")
        self.end_ts = self._sim.now
        return self

    # -- analysis ----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end_ts is not None

    @property
    def duration(self) -> float:
        """End-to-end latency (finished spans only)."""
        if self.end_ts is None:
            raise ValueError(f"span {self.rid} not finished")
        return self.end_ts - self.start_ts

    def stages(self) -> List[Tuple[str, str, float, float]]:
        """[(stage, component, start, duration), ...] in path order."""
        out = []
        prev = self.start_ts
        for ts, component, stage, _detail in self.marks:
            out.append((stage, component, prev, ts - prev))
            prev = ts
        return out

    def breakdown(self) -> Dict[str, float]:
        """Per-stage critical-path time; sums to :attr:`duration`."""
        out: Dict[str, float] = {}
        prev = self.start_ts
        for ts, _component, stage, _detail in self.marks:
            out[stage] = out.get(stage, 0.0) + (ts - prev)
            prev = ts
        return out

    def __repr__(self) -> str:
        end = f"{self.end_ts:.3f}" if self.end_ts is not None else "…"
        return (f"<Span #{self.rid} {self.op} {self.origin} "
                f"path={self.path} [{self.start_ts:.3f}..{end}]us "
                f"{len(self.marks)} marks>")

    # -- (de)serialization -------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rid": self.rid, "op": self.op, "origin": self.origin,
            "path": self.path, "start": self.start_ts, "end": self.end_ts,
            "detail": self.detail,
            "marks": [[ts, comp, stage, det]
                      for ts, comp, stage, det in self.marks],
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        span = cls(None, record["rid"], record["op"], record["origin"],
                   record.get("detail") or {})
        span.path = record.get("path", "rpc")
        span.start_ts = record["start"]
        span.end_ts = record.get("end")
        span.marks = [(m[0], m[1], m[2], m[3]) for m in record["marks"]]
        return span


class _TraceQueries:
    """Read-only queries over the ``events`` and ``spans`` sequences,
    shared by the live :class:`Tracer` and a :class:`TraceDump` loaded
    back from JSONL."""

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def filter(self, kind: str) -> List[TraceEvent]:
        """The events of one ``kind``, in time order."""
        return [ev for ev in self.events if ev.kind == kind]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def finished_spans(self, op: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans if s.finished
                and (op is None or s.op == op)]


class Tracer(_TraceQueries):
    """Bounded in-memory trace collector: events + spans."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.events: Deque[TraceEvent] = deque(maxlen=CAPACITY)
        self.dropped = 0
        self.emitted = 0
        #: Completed and in-flight spans, oldest first (bounded ring).
        self.spans: Deque[Span] = deque(maxlen=CAPACITY)
        self.spans_started = 0
        self._rids = itertools.count(1)

    @classmethod
    def attach(cls, sim: Simulator) -> "Tracer":
        """Create a tracer and attach it as ``sim.tracer``."""
        tracer = cls(sim)
        sim.tracer = tracer
        return tracer

    # -- recording ---------------------------------------------------------

    def emit(self, component: str, kind: str, **detail: Any) -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.emitted += 1
        self.events.append(
            TraceEvent(self.sim.now, component, kind, detail))

    def start_span(self, origin: str, op: str, **detail: Any) -> Span:
        """Open a request span anchored at the current time."""
        span = Span(self.sim, next(self._rids), op, origin,
                    detail or None)
        self.spans_started += 1
        self.spans.append(span)
        return span

    # -- export ------------------------------------------------------------

    def dump_jsonl(self, path: str,
                   series: Optional[Mapping[str, TimeSeries]] = None
                   ) -> int:
        """Write the trace as JSON lines; returns the data-line count.

        The first line is a header carrying the ring buffer's
        ``emitted``/``dropped`` accounting, followed by the buffered
        events in insertion (= time) order, then the buffered spans, then
        one line per sampled series in ``series`` (a sampler's
        ``series``: name, the ring's ``dropped`` count, points).
        :func:`load_jsonl` round-trips the whole file.
        """
        count = 0
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "kind": HEADER_KIND, "version": 1,
                "emitted": self.emitted, "dropped": self.dropped,
                "events": len(self.events), "spans": len(self.spans),
                "spans_started": self.spans_started,
            }) + "\n")
            # The deque guarantees insertion order, which is time order
            # because the simulation clock is monotone.
            for ev in self.events:
                fh.write(json.dumps(ev.as_dict(), default=str) + "\n")
                count += 1
            for span in self.spans:
                record = {"kind": SPAN_KIND}
                record.update(span.as_dict())
                fh.write(json.dumps(record, default=str) + "\n")
                count += 1
            for name, ring in (series or {}).items():
                fh.write(json.dumps({
                    "kind": SERIES_KIND, "name": name,
                    "dropped": ring.dropped,
                    "points": [[ts, value] for ts, value in ring],
                }) + "\n")
                count += 1
        return count


class TraceDump(_TraceQueries):
    """A trace loaded back from JSONL: events, spans, sampled series
    (``{name: [(ts, value), ...]}``) and ring metadata."""

    def __init__(self, events: List[TraceEvent], spans: List[Span],
                 series: Dict[str, List[Tuple[float, float]]],
                 emitted: int, dropped: int):
        self.events = events
        self.spans = spans
        self.series = series
        self.emitted = emitted
        self.dropped = dropped


def load_jsonl(path: str) -> TraceDump:
    """Load a :meth:`Tracer.dump_jsonl` file back into memory; a file
    without the header line is not a trace dump (``ValueError``)."""
    events: List[TraceEvent] = []
    spans: List[Span] = []
    series: Dict[str, List[Tuple[float, float]]] = {}
    header: Optional[Dict[str, Any]] = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == HEADER_KIND:
                header = record
            elif kind == SPAN_KIND:
                spans.append(Span.from_dict(record))
            elif kind == SERIES_KIND:
                series[record["name"]] = [(ts, value) for ts, value
                                          in record["points"]]
            else:
                ts = record.pop("ts")
                component = record.pop("component")
                record.pop("kind", None)
                events.append(TraceEvent(ts, component, kind, record))
    if header is None:
        raise ValueError(f"{path}: no {HEADER_KIND} line")
    return TraceDump(events, spans, series, emitted=header["emitted"],
                     dropped=header["dropped"])


def emit(sim: Simulator, component: str, kind: str, **detail: Any) -> None:
    """Module-level guard helper for instrumented code paths."""
    tracer = getattr(sim, "tracer", None)
    if tracer is not None:
        tracer.emit(component, kind, **detail)


def span_start(sim: Simulator, origin: str, op: str,
               **detail: Any) -> Optional[Span]:
    """Open a span if a tracer is attached; ``None`` (and zero cost)
    otherwise. Call sites guard marks with ``if span is not None``."""
    tracer = getattr(sim, "tracer", None)
    if tracer is None:
        return None
    return tracer.start_span(origin, op, **detail)
