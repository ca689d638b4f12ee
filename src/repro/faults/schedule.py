"""Declarative fault-firing schedules.

A :class:`FaultSchedule` describes *when* a fault fires, independently
of *what* it does; the :class:`repro.faults.Injector` binds schedules to
actions when it arms. A schedule is a list of absolute fire times, built
by :meth:`FaultSchedule.at`: the ``shard`` campaign's scripted server
crash. Firing draws nothing, so a schedule never moves a random stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class FaultSchedule:
    """When a fault fires: absolute times in µs, ascending. Build via
    :meth:`at`."""

    times: Tuple[float, ...] = ()

    @classmethod
    def at(cls, times) -> "FaultSchedule":
        """Fire at each absolute time in ``times``."""
        ordered = tuple(sorted(float(t) for t in times))
        if any(t < 0 for t in ordered):
            raise ValueError(f"negative fire time in {ordered}")
        return cls(times=ordered)
