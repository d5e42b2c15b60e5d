"""The run-attached records: per-period trace points and the summary.

A :class:`TracePoint` is the metrics snapshot the engine takes at the
end of one traced period (every ``trace_every`` periods).  A
:class:`TelemetrySummary` is the run-attached form of telemetry: the
phase-time breakdown (total seconds + call count per span name) and the
final counter/gauge values.  Both travel on
:class:`~repro.sim.engine.SimulationResult` and
:class:`~repro.api.specs.RunRecord`, so a stored run explains what it
did and where its time went without re-running anything.

Counters are deterministic quantities (candidate pairs, repair attempts,
messages by type) and are identical no matter how a sweep was sharded;
phase seconds are wall-clock and vary run to run.  Tooling that asserts
reproducibility therefore compares :attr:`TelemetrySummary.counters` and
ignores :attr:`TelemetrySummary.phases`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional

__all__ = ["TracePoint", "PhaseStat", "TelemetrySummary", "merge_summaries"]


@dataclass(frozen=True)
class TracePoint:
    """Coverage/metrics snapshot at the end of one traced period."""

    #: Simulated seconds at the end of the period.
    time: float
    coverage: float
    average_moving_distance: float
    #: Protocol transmissions since the run started (cumulative).
    total_messages: int
    connected_sensors: int

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "TracePoint":
        """Rebuild a point from its fields; other keys (a trace line's
        ``type`` and ``run``) are ignored."""
        return TracePoint(
            **{name: data[name] for name in TracePoint.__dataclass_fields__}
        )


@dataclass(frozen=True)
class PhaseStat:
    """Aggregate of one named span: total time and number of entries."""

    seconds: float
    calls: int

    def to_dict(self) -> Dict[str, Any]:
        return {"seconds": self.seconds, "calls": self.calls}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PhaseStat":
        return cls(seconds=float(data["seconds"]), calls=int(data["calls"]))


@dataclass(frozen=True)
class TelemetrySummary:
    """Phase-time breakdown plus final counter/gauge values for one run."""

    phases: Dict[str, PhaseStat] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    def total_seconds(self) -> float:
        """Sum of all phase times (phases may nest, so this can overcount)."""
        return sum(stat.seconds for stat in self.phases.values())

    def merge(self, other: "TelemetrySummary") -> "TelemetrySummary":
        """Combine two summaries: phases and counters add, gauges last-win."""
        phases = dict(self.phases)
        for name, stat in other.phases.items():
            mine = phases.get(name)
            if mine is None:
                phases[name] = stat
            else:
                phases[name] = PhaseStat(
                    seconds=mine.seconds + stat.seconds,
                    calls=mine.calls + stat.calls,
                )
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        gauges.update(other.gauges)
        return TelemetrySummary(phases=phases, counters=counters, gauges=gauges)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload with deterministic key order."""
        return {
            "phases": {
                name: self.phases[name].to_dict() for name in sorted(self.phases)
            },
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
        }

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "TelemetrySummary":
        if data is None:
            return cls()
        return cls(
            phases={
                name: PhaseStat.from_dict(stat)
                for name, stat in data.get("phases", {}).items()
            },
            counters={
                name: int(value) for name, value in data.get("counters", {}).items()
            },
            gauges={
                name: float(value) for name, value in data.get("gauges", {}).items()
            },
        )


def merge_summaries(
    summaries: Iterable[Optional[TelemetrySummary]],
) -> TelemetrySummary:
    """Fold summaries with :meth:`TelemetrySummary.merge`; ``None``
    entries (unprofiled records) are skipped."""
    merged = TelemetrySummary()
    for summary in summaries:
        if summary is not None:
            merged = merged.merge(summary)
    return merged
