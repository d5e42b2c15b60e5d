"""The telemetry front end: span timers, counters and gauges.

Instrumented code holds one :class:`Telemetry` and calls::

    with tel.span("cpvf.forces"):
        ...                       # timed phase
    tel.count("cpvf.repair_attempts", 1)
    tel.gauge("floor.relocations_in_flight", len(active))

and the run's owner reads the aggregates back with :meth:`Telemetry.summary`.

The overhead contract: the default is :data:`NULL_TELEMETRY`, whose
``span`` returns a shared no-op context manager and whose ``count`` /
``gauge`` are empty methods — uninstrumented-speed minus one attribute
lookup and a call.  Hot loops that would pay even
that (e.g. per-pair work) guard with ``if tel.enabled:``.  The
``telemetry_overhead`` entry in ``BENCH_perf.json`` pins the measured
cost on the CPVF kernel at <= a few percent.

Counters must be *deterministic* quantities (sizes, attempt counts,
messages) so that a sweep's counter totals are identical however it was
sharded; wall-clock only ever enters through span times, which live in
the :class:`~repro.obs.summary.TelemetrySummary` ``phases`` side.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping

from .summary import PhaseStat, TelemetrySummary

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]


class _Span:
    """Context manager that times one phase entry with perf_counter."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str):
        self._telemetry = telemetry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._telemetry._record_span(
            self._name, time.perf_counter() - self._start
        )
        return False


class _NullSpan:
    """Shared do-nothing context manager handed out by NullTelemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Aggregating telemetry collector: span totals, counters, gauges."""

    #: Hot-loop guard: ``if tel.enabled:`` skips per-item accounting work.
    enabled: bool = True

    def __init__(self) -> None:
        # name -> [total_seconds, calls]; a mutable cell keeps the hot
        # span-close path to one dict lookup + two in-place adds.
        self._spans: Dict[str, List[float]] = {}
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}

    def span(self, name: str) -> Any:
        """A context manager timing one entry of phase ``name``."""
        return _Span(self, name)

    def _record_span(self, name: str, seconds: float) -> None:
        cell = self._spans.get(name)
        if cell is None:
            self._spans[name] = [seconds, 1]
        else:
            cell[0] += seconds
            cell[1] += 1

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the named monotone counter."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest observed value."""
        self._gauges[name] = float(value)

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        """Fold an external counter mapping (e.g. message stats) in."""
        for name, value in counters.items():
            self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> int:
        """Current value of the named counter (0 when never counted)."""
        return self._counters.get(name, 0)

    def summary(self) -> TelemetrySummary:
        """Snapshot the aggregates as an immutable summary."""
        return TelemetrySummary(
            phases={
                name: PhaseStat(seconds=cell[0], calls=int(cell[1]))
                for name, cell in self._spans.items()
            },
            counters=dict(self._counters),
            gauges=dict(self._gauges),
        )


class NullTelemetry(Telemetry):
    """Disabled telemetry: every operation is a no-op.

    A single module-level instance (:data:`NULL_TELEMETRY`) is shared by
    every un-instrumented world/engine, so "telemetry off" allocates
    nothing per run and adds one attribute read per instrumentation
    point.
    """

    enabled = False

    def span(self, name: str) -> Any:
        return _NULL_SPAN

    def count(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        pass

    def summary(self) -> TelemetrySummary:
        return TelemetrySummary()


NULL_TELEMETRY = NullTelemetry()
