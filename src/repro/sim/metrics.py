"""Unified metrics registry over the measurement instruments.

The simulator's instruments (:class:`Counter`, :class:`LatencyStats`,
:class:`BusyTracker`) historically floated freely inside components; the
registry binds them under hierarchical dotted names (``server.cache``,
``client0.nic``, …) so one ``snapshot()`` call reads out the whole
system — ``server.cache.hits``, ``client0.nic.dma_bytes`` — as one flat
dict.

Components keep owning their instruments; the registry only references
them, so registration costs nothing on the hot path. ``Cluster`` builds
a registry over every host's CPU, NIC, protocol and cache instruments at
wiring time (see :mod:`repro.cluster`).
"""

from __future__ import annotations

from typing import Any, Dict

from .monitor import BusyTracker, Counter, LatencyStats


class MetricsRegistry:
    """Named instruments with a single hierarchical read-out."""

    def __init__(self):
        self._instruments: Dict[str, Any] = {}

    # -- registration ------------------------------------------------------

    def register(self, name: str, instrument: Any) -> Any:
        """Bind ``instrument`` under dotted ``name``; returns it."""
        if not name:
            raise ValueError("metric name must be non-empty")
        if name in self._instruments:
            raise ValueError(f"metric {name!r} already registered")
        self._instruments[name] = instrument
        return instrument

    # -- access ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    # -- read-out ----------------------------------------------------------

    @staticmethod
    def instrument_values(instrument: Any) -> Dict[str, Any]:
        """Flatten one instrument into leaf-name -> JSON-safe value."""
        if isinstance(instrument, Counter):
            return dict(instrument.as_dict())
        if isinstance(instrument, LatencyStats):
            return instrument.summary()
        if isinstance(instrument, BusyTracker):
            out: Dict[str, Any] = {
                "busy_us": instrument.busy_us,
                "utilization": instrument.utilization(),
            }
            for category, us in instrument.by_category.items():
                out[f"by.{category}"] = us
            return out
        if hasattr(instrument, "as_dict"):
            return dict(instrument.as_dict())
        raise TypeError(
            f"unsupported instrument type {type(instrument).__name__}")

    def snapshot(self) -> Dict[str, Any]:
        """One flat ``{dotted.name: value}`` view of every instrument."""
        out: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            values = self.instrument_values(self._instruments[name])
            for leaf, value in values.items():
                out[f"{name}.{leaf}"] = value
        return out

    def subtree(self, prefix: str) -> Dict[str, Any]:
        """Snapshot entries under ``prefix.`` (prefix itself excluded)."""
        dotted = prefix + "."
        return {name: value for name, value in self.snapshot().items()
                if name.startswith(dotted)}
