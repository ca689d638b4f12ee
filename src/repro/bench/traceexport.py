"""Chrome/Perfetto Trace Event Format export for spans + telemetry.

Converts a run's three observability products — trace events, request
spans, and sampled time series — into one Trace Event Format JSON
document (the ``{"traceEvents": [...]}`` dialect understood by Perfetto
and ``chrome://tracing``):

* one **process row per host** (server, clientN, plus a ``net`` pseudo
  process for fabric-level series and a ``switch`` process when the
  switch emitted events);
* **thread rows per component layer** within a host — a ``requests``
  row holding one complete event per span, one row per stage layer
  (``rpc``, ``nic``, ``net``, ``ordma``, ...) holding the span's stage
  intervals, and an ``events`` row of instants;
* **counter tracks** (``ph: "C"``) from the sampler's series, one per
  dotted gauge name, attributed to the owning host's process.

Sim time is microseconds, which is exactly the Trace Event Format's
``ts`` unit — timestamps map through unchanged (rounded to 3 decimals).

The export is deterministic byte-for-byte for a fixed seed: rows are
emitted in a fixed structural order and serialized with sorted keys, so
CI can diff two same-seed runs. ``python -m repro.bench.traceexport
out.json`` re-validates a written file (used by the CI smoke job).
"""

from __future__ import annotations

import json
import sys
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..sim import Span, TraceEvent

#: Sampled series by dotted name: a sampler's ``series`` (each ring
#: iterates its points) or a loaded dump's ``{name: [(ts, value), ...]}``.
Series = Optional[Mapping[str, Iterable[Tuple[float, float]]]]

#: Stage-name prefixes mapped to thread rows, in display order. The
#: ``requests`` row (whole spans) always sorts first and ``events``
#: (instants) last; unknown prefixes slot in alphabetically after these.
LAYER_ORDER = ("app", "rpc", "nic", "net", "ordma", "rdma", "server",
               "cache", "disk")

_REQUESTS_ROW = "requests"
_EVENTS_ROW = "events"

_PHASES = {"M", "X", "i", "C"}
_METADATA_NAMES = {"process_name", "thread_name"}


def _r3(value: float) -> float:
    return round(value, 3)


def _layer(stage: str) -> str:
    """Thread row for a stage mark: its dotted prefix (``rpc.marshal``
    -> ``rpc``); bare stages like ``deliver`` belong to the app row."""
    head, _, rest = stage.partition(".")
    return head if rest else "app"


def _series_items(series: Series
                  ) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """The series as (name, [(ts, value), ...]) pairs, in mapping order."""
    return [(name, list(points)) for name, points in (series or {}).items()]


def _json_safe(detail: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value if isinstance(value, (int, float, str, bool,
                                             type(None))) else str(value)
            for key, value in detail.items()}


def build_trace(events: Iterable[TraceEvent] = (),
                spans: Iterable[Span] = (),
                series: Series = None) -> Dict[str, Any]:
    """Build the Trace Event Format document (pure data, no I/O)."""
    events = list(events)
    spans = [s for s in spans if s.finished]
    series_items = _series_items(series)

    # Process rows: every host/component that contributes anything.
    names = set()
    for span in spans:
        names.add(span.origin)
        for _ts, component, _stage, _detail in span.marks:
            names.add(component)
    for ev in events:
        names.add(ev.component)
    for name, _points in series_items:
        names.add(name.split(".", 1)[0])
    pids = {name: idx + 1 for idx, name in enumerate(sorted(names))}

    # Thread rows used per process, in stable layer order.
    used: Dict[str, set] = {name: set() for name in pids}
    for span in spans:
        used[span.origin].add(_REQUESTS_ROW)
        for stage, component, _start, _dur in span.stages():
            used[component].add(_layer(stage))
    for ev in events:
        used[ev.component].add(_EVENTS_ROW)

    def row_key(row: str) -> Tuple[int, str]:
        if row == _REQUESTS_ROW:
            return (-1, row)
        if row == _EVENTS_ROW:
            return (len(LAYER_ORDER) + 1, row)
        try:
            return (LAYER_ORDER.index(row), row)
        except ValueError:
            return (len(LAYER_ORDER), row)

    tids: Dict[Tuple[str, str], int] = {}
    for name in sorted(names):
        for tid, row in enumerate(sorted(used[name], key=row_key)):
            tids[(name, row)] = tid

    out: List[Dict[str, Any]] = []
    for name in sorted(names):
        pid = pids[name]
        out.append({"ph": "M", "pid": pid, "tid": 0,
                    "name": "process_name", "args": {"name": name}})
        for row in sorted(used[name], key=row_key):
            out.append({"ph": "M", "pid": pid, "tid": tids[(name, row)],
                        "name": "thread_name", "args": {"name": row}})

    for span in spans:
        out.append({
            "ph": "X", "pid": pids[span.origin],
            "tid": tids[(span.origin, _REQUESTS_ROW)],
            "ts": _r3(span.start_ts), "dur": _r3(span.duration),
            "name": span.op, "cat": span.path,
            "args": {"rid": span.rid, "path": span.path},
        })
        for stage, component, start, dur in span.stages():
            out.append({
                "ph": "X", "pid": pids[component],
                "tid": tids[(component, _layer(stage))],
                "ts": _r3(start), "dur": _r3(max(0.0, dur)),
                "name": stage, "cat": span.path,
                "args": {"rid": span.rid},
            })

    for ev in events:
        out.append({
            "ph": "i", "pid": pids[ev.component],
            "tid": tids[(ev.component, _EVENTS_ROW)],
            "ts": _r3(ev.ts), "name": ev.kind, "s": "t",
            "args": _json_safe(ev.detail),
        })

    for name, points in series_items:
        pid = pids[name.split(".", 1)[0]]
        for ts, value in points:
            out.append({"ph": "C", "pid": pid, "tid": 0,
                        "ts": _r3(ts), "name": name,
                        "args": {"value": round(value, 6)}})

    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "sim-us",
                      "generator": "repro-bench trace --perfetto"},
    }


def to_json(doc: Dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, no whitespace — the same
    document always produces the same bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str)


def dump_perfetto(path: str, events: Iterable[TraceEvent] = (),
                  spans: Iterable[Span] = (),
                  series: Series = None) -> int:
    """Write the export to ``path``; returns the trace-event count."""
    doc = build_trace(events=events, spans=spans, series=series)
    with open(path, "w") as fh:
        fh.write(to_json(doc))
        fh.write("\n")
    return len(doc["traceEvents"])


def validate(doc: Any) -> List[str]:
    """Schema-check a Trace Event Format document.

    Returns a list of problem descriptions (empty when valid): required
    keys per phase, known phases, non-negative timestamps/durations,
    numeric counter values with per-track monotonic timestamps, and
    process_name metadata for every referenced pid.
    """
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document must be an object with a 'traceEvents' key"]
    rows = doc["traceEvents"]
    if not isinstance(rows, list) or not rows:
        return ["'traceEvents' must be a non-empty array"]

    named_pids = set()
    used_pids = set()
    counter_last_ts: Dict[Tuple[int, str], float] = {}
    for idx, row in enumerate(rows):
        where = f"traceEvents[{idx}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = row.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(row.get("pid"), int):
            problems.append(f"{where}: missing integer 'pid'")
            continue
        pid = row["pid"]
        name = row.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing 'name'")
            continue
        if ph == "M":
            if name not in _METADATA_NAMES:
                problems.append(f"{where}: unknown metadata {name!r}")
            elif not isinstance(row.get("args", {}).get("name"), str):
                problems.append(f"{where}: metadata without args.name")
            elif name == "process_name":
                named_pids.add(pid)
            continue
        used_pids.add(pid)
        ts = row.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad 'ts' {ts!r}")
            continue
        if ph == "X":
            dur = row.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad 'dur' {dur!r}")
            if not isinstance(row.get("tid"), int):
                problems.append(f"{where}: complete event without 'tid'")
        elif ph == "C":
            value = row.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                problems.append(f"{where}: counter without numeric value")
            track = (pid, name)
            last = counter_last_ts.get(track)
            if last is not None and ts < last:
                problems.append(
                    f"{where}: counter track {name!r} ts regresses "
                    f"({ts} < {last})")
            counter_last_ts[track] = ts

    for pid in sorted(used_pids - named_pids):
        problems.append(f"pid {pid} has no process_name metadata")
    return problems


def counter_tracks(doc: Dict[str, Any]) -> Dict[str, int]:
    """Counter-track names mapped to their sample counts."""
    out: Dict[str, int] = {}
    for row in doc.get("traceEvents", []):
        if isinstance(row, dict) and row.get("ph") == "C":
            out[row["name"]] = out.get(row["name"], 0) + 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Validate Trace Event Format files (the CI smoke entry point)."""
    paths = list(argv if argv is not None else sys.argv[1:])
    if not paths:
        print("usage: python -m repro.bench.traceexport FILE [FILE...]")
        return 2
    failed = False
    for path in paths:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable: {exc}")
            failed = True
            continue
        problems = validate(doc)
        if problems:
            failed = True
            print(f"{path}: INVALID")
            for problem in problems[:20]:
                print(f"  - {problem}")
            if len(problems) > 20:
                print(f"  ... and {len(problems) - 20} more")
        else:
            rows = doc["traceEvents"]
            processes = sum(1 for r in rows if r.get("ph") == "M"
                            and r.get("name") == "process_name")
            tracks = len(counter_tracks(doc))
            print(f"{path}: OK ({len(rows)} events, {processes} "
                  f"processes, {tracks} counter tracks)")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    sys.exit(main())
