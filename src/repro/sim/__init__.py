"""Discrete-event simulation kernel used by every model in :mod:`repro`."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .metrics import MetricsRegistry
from .monitor import BusyTracker, Counter, LatencyStats
from .rand import RandomStreams
from .resources import BandwidthPipe, Request, Resource, Store
from .timeseries import (
    TimeSeries,
    TimeSeriesSampler,
    rate_probe,
    ratio_probe,
)
from .trace import (
    Span,
    TraceDump,
    TraceEvent,
    Tracer,
    emit as trace_emit,
    load_jsonl,
    span_start,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthPipe",
    "BusyTracker",
    "Counter",
    "Event",
    "LatencyStats",
    "MetricsRegistry",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "Span",
    "Store",
    "TimeSeries",
    "TimeSeriesSampler",
    "Timeout",
    "TraceDump",
    "TraceEvent",
    "Tracer",
    "load_jsonl",
    "rate_probe",
    "ratio_probe",
    "span_start",
    "trace_emit",
]
