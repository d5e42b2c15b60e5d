"""The period-synchronous simulation engine.

The paper's protocols are defined at the granularity of a *period*: a sensor
moves in a straight line for ``T`` seconds, then decides its next step.  The
engine therefore advances the world one period at a time, delegating all
decisions to a :class:`DeploymentScheme`, and records a metric trace
(coverage, moving distance, message counts) that the experiment harness
turns into the paper's tables and figures.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..metrics.recovery import EventOutcome
from ..obs import NULL_TELEMETRY, Telemetry, TelemetrySummary, TracePoint
from .lifecycle import FaultInjector, LifecycleEvent, WorldChange
from .world import World

__all__ = ["DeploymentScheme", "SimulationResult", "SimulationEngine"]


class DeploymentScheme(abc.ABC):
    """Interface every deployment scheme implements."""

    #: Human-readable scheme name used in experiment reports.
    name: str = "scheme"

    @abc.abstractmethod
    def initialize(self, world: World) -> None:
        """One-time setup before the first period (state assignment etc.)."""

    @abc.abstractmethod
    def step(self, world: World) -> None:
        """Execute one decision period for every sensor."""

    def has_converged(self, world: World) -> bool:
        """Whether the layout has stabilised.

        The engine stops at the first converged period after the last
        scheduled lifecycle event.
        """
        return False

    def on_world_changed(self, world: World, change: WorldChange) -> None:
        """Hook: a lifecycle event mutated the world between periods.

        Schemes override this to react to churn — re-dispatch sensors the
        tree repair dropped, evict dead registry entries, invalidate paths
        crossing a new obstacle.  The default is a no-op: a scheme that
        only reads the world each period is already churn-safe.
        """


@dataclass
class SimulationResult:
    """Outcome of a complete simulation run."""

    scheme_name: str
    final_coverage: float
    average_moving_distance: float
    total_moving_distance: float
    total_messages: int
    connected: bool
    periods_executed: int
    converged_at: Optional[int]
    #: One snapshot per traced period (``trace_every``), oldest first.
    trace: List[TracePoint] = field(default_factory=list)
    #: Recovery metrics, one entry per fired lifecycle event.
    events: List[EventOutcome] = field(default_factory=list)
    world: Optional[World] = None
    #: Phase-time breakdown + counter totals; ``None`` unless the engine
    #: ran with an enabled Telemetry.
    telemetry: Optional[TelemetrySummary] = None


class SimulationEngine:
    """Runs a deployment scheme over a world for the configured horizon."""

    def __init__(
        self,
        world: World,
        scheme: DeploymentScheme,
        trace_every: Optional[int] = 50,
        events: Sequence[LifecycleEvent] = (),
        telemetry: Optional[Telemetry] = None,
    ):
        self._world = world
        self._scheme = scheme
        # ``None`` disables periodic tracing entirely: no per-period
        # coverage measurement is paid for a trace nobody asked for.
        self._trace_every = None if trace_every is None else max(1, trace_every)
        self._events = tuple(events)
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    @property
    def world(self) -> World:
        """The world being simulated."""
        return self._world

    def run(self) -> SimulationResult:
        """Execute the simulation and return the aggregated result."""
        world = self._world
        scheme = self._scheme
        tel = self._telemetry
        world.telemetry = tel
        with tel.span("engine.initialize"):
            scheme.initialize(world)

        trace: List[TracePoint] = []
        converged_at: Optional[int] = None
        max_periods = world.config.max_periods
        # No timeline, no injector: static runs take the exact pre-lifecycle
        # period loop (and pay none of the per-period accounting).
        injector = (
            FaultInjector(world, scheme, self._events) if self._events else None
        )

        trace_every = self._trace_every
        for period in range(max_periods):
            world.period_index = period
            if injector is not None:
                with tel.span("engine.fault_injection"):
                    fired = injector.fire(period)
                if fired:
                    # The world just changed; earlier convergence is void.
                    converged_at = None
            with tel.span("engine.scheme_step"):
                scheme.step(world)
            world.time += world.config.period
            if injector is not None:
                with tel.span("engine.fault_injection"):
                    injector.observe(period)

            if trace_every is not None and (
                (period + 1) % trace_every == 0 or period == max_periods - 1
            ):
                with tel.span("engine.trace"):
                    trace.append(
                        TracePoint(
                            time=world.time,
                            coverage=world.coverage(),
                            average_moving_distance=world.average_moving_distance(),
                            total_messages=world.stats.total(),
                            connected_sensors=len(world.connected_sensor_ids()),
                        )
                    )

            if scheme.has_converged(world):
                if converged_at is None:
                    converged_at = period + 1
                if injector is None or not injector.has_pending(period):
                    break

        # The last trace record (when one was taken this period) already
        # holds the final coverage; don't measure the same layout twice.
        if trace and trace[-1].time == world.time:
            final_coverage = trace[-1].coverage
        else:
            with tel.span("engine.trace"):
                final_coverage = world.coverage()
        result = SimulationResult(
            scheme_name=scheme.name,
            final_coverage=final_coverage,
            average_moving_distance=world.average_moving_distance(),
            total_moving_distance=world.total_moving_distance(),
            total_messages=world.stats.total(),
            connected=world.network_is_connected(),
            periods_executed=world.period_index + 1,
            converged_at=converged_at,
            trace=trace,
            events=injector.outcomes() if injector is not None else [],
            world=world,
        )
        # The summary is taken last, so the profile covers the work behind
        # every result field (the connectivity check builds a table).
        if tel.enabled:
            tel.count("engine.periods", result.periods_executed)
            tel.merge_counters(world.stats.to_counters())
            # The uncharged-correction ledger (`MotionModel.relocate`).
            for cause, calls in world.position_clock.corrections.items():
                tel.count(f"motion.corrections.{cause}", calls)
            uncharged = sum(s.motion.uncharged for s in world.sensors)
            tel.count("motion.uncharged_mm", round(1000.0 * uncharged))
            result.telemetry = tel.summary()
        return result
