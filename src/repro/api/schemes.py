"""Scheme adapters: one execution interface over every deployment scheme.

The paper evaluates three very different kinds of scheme:

* the **period-based** CPVF and FLOOR protocols, which run on the
  period-synchronous :class:`~repro.sim.engine.SimulationEngine`;
* the **round-based** VD baselines VOR and Minimax, which operate on raw
  position lists and (from a clustered start) need the explosion dispersal
  first;
* the **analytic** OPT strip pattern and the Hungarian moving-distance
  lower bound, which need no simulation at all.

Historically every experiment special-cased these three shapes.  The
:class:`SchemeAdapter` interface hides the difference: every adapter turns a
:class:`~repro.api.specs.RunSpec` into a :class:`~repro.api.specs.RunRecord`,
and experiments just declare grids of run specs.  Adapters register
themselves by name (``@register_scheme("CPVF")``), so new schemes plug in
without touching the experiment layer.
"""

from __future__ import annotations

import abc
import dataclasses
import random
import time
from typing import Dict

from ..assignment import minimum_distance_matching
from ..baselines import MinimaxScheme, OptStripPattern, VorScheme, explode
from ..core import CPVFScheme, FloorScheme
from ..metrics import positions_are_connected
from ..metrics.recovery import RecoveryTracker
from ..obs import NULL_TELEMETRY, PhaseStat, Telemetry, TelemetrySummary
from ..sim import DeploymentScheme, SimulationEngine
from ..sim.lifecycle import (
    build_event_obstacle,
    draw_join_positions,
    event_rng,
    select_failure_victims,
)
from ..voronoi import diagram_is_correct
from .registry import register_scheme, scheme_registry
from .scenario import thaw_params
from .specs import RunRecord, RunSpec, TracePoint

__all__ = [
    "SchemeAdapter",
    "PeriodSchemeAdapter",
    "VDSchemeAdapter",
    "execute_run",
    "hungarian_bound",
]


def _reject_unknown_params(scheme_name: str, params: Dict) -> None:
    if params:
        raise TypeError(
            f"unknown {scheme_name} scheme parameters: {sorted(params)}"
        )


def hungarian_bound(scenario, targets, field=None):
    """Hungarian moving-distance lower bound to reach a target layout.

    Matches the scenario's deterministic initial placement to ``targets``
    at minimum total distance and returns ``(average_distance, coverage)``
    — the recipe shared by the OPT-Hungarian scheme and the Fig 11
    FLOOR-Hungarian row.
    """
    if field is None:
        field = scenario.build_field()
    initial = scenario.initial_positions(field)
    _, total = minimum_distance_matching(
        [p.as_tuple() for p in initial], [p.as_tuple() for p in targets]
    )
    coverage = field.coverage_fraction(
        targets, scenario.sensing_range, scenario.coverage_resolution
    )
    return total / max(1, scenario.sensor_count), coverage


def execute_run(spec: RunSpec) -> RunRecord:
    """Execute one run spec through the registered scheme adapter.

    This is the single entry point the sweep executor (and its worker
    processes) use; it is a module-level function so it pickles cleanly.

    With ``spec.profile`` set, the record carries a
    :class:`~repro.obs.TelemetrySummary`.  Period-based schemes collect
    real phase spans inside the engine; schemes without an engine (the VD
    baselines and the analytic patterns) get a minimal one-phase
    ``run.execute`` summary so profiled sweeps render uniformly.
    """
    adapter: SchemeAdapter = scheme_registry.get(spec.scheme)
    if not spec.profile:
        return adapter.execute(spec)
    started = time.perf_counter()
    record = adapter.execute(spec)
    if record.telemetry is None:
        summary = TelemetrySummary(
            phases={
                "run.execute": PhaseStat(
                    seconds=time.perf_counter() - started, calls=1
                )
            }
        )
        record = dataclasses.replace(record, telemetry=summary)
    return record


class SchemeAdapter(abc.ABC):
    """Executes one :class:`RunSpec`, whatever kind of scheme it names."""

    #: Canonical scheme name reported in records.
    name: str = "scheme"

    @abc.abstractmethod
    def execute(self, spec: RunSpec) -> RunRecord:
        """Run the scheme on the spec's scenario and return the record."""


# ----------------------------------------------------------------------
# Period-based schemes (CPVF, FLOOR) on the simulation engine
# ----------------------------------------------------------------------
class PeriodSchemeAdapter(SchemeAdapter):
    """Adapter base for schemes driven by the period-synchronous engine."""

    def build_scheme(self, scenario, params: Dict) -> DeploymentScheme:
        """Instantiate the underlying scheme.

        ``scenario`` is the :class:`~repro.api.scenario.ScenarioSpec`, the
        one home of the scheme settings (``oscillation_delta``,
        ``invitation_ttl``, ...); ``params`` are the run's scheme
        parameters.
        """
        raise NotImplementedError

    def execute(self, spec: RunSpec) -> RunRecord:
        scenario = spec.scenario
        field = scenario.build_field()
        world = scenario.build_world(field)
        if spec.network is not None:
            # Structural specs build the shared perfect instance, so the
            # assignment is behaviour-preserving in that case.
            world.network = spec.network.build(scenario.seed)
        scheme = self.build_scheme(scenario, thaw_params(spec.scheme_params))
        engine = SimulationEngine(
            world,
            scheme,
            # Explicit cadence: None means no trace was requested, so the
            # engine skips the per-period coverage measurements entirely
            # instead of silently tracing every 50 periods.
            trace_every=spec.trace_every,
            events=scenario.events,
            telemetry=Telemetry() if spec.profile else NULL_TELEMETRY,
        )
        result = engine.run()
        return RunRecord(
            spec=spec,
            scheme=self.name,
            coverage=result.final_coverage,
            average_moving_distance=result.average_moving_distance,
            total_moving_distance=result.total_moving_distance,
            total_messages=result.total_messages,
            connected=result.connected,
            periods_executed=result.periods_executed,
            converged_at=result.converged_at,
            extras={"obstacle_count": len(field.obstacles)},
            trace=(
                tuple(
                    TracePoint(
                        time=t.time,
                        coverage=t.coverage,
                        average_moving_distance=t.average_moving_distance,
                        total_messages=t.total_messages,
                        connected_sensors=t.connected_sensors,
                    )
                    for t in result.trace
                )
            ),
            events=tuple(result.events),
            final_positions=(
                tuple((s.position.x, s.position.y) for s in world.sensors)
                if spec.keep_positions
                else None
            ),
            telemetry=result.telemetry,
        )


@register_scheme("CPVF")
class CPVFAdapter(PeriodSchemeAdapter):
    """Connectivity-Preserved Virtual Force deployment (Section 4)."""

    name = "CPVF"

    def build_scheme(self, scenario, params: Dict) -> DeploymentScheme:
        return CPVFScheme(
            oscillation_delta=scenario.oscillation_delta,
            oscillation_mode=scenario.oscillation_mode,
            **params,
        )


@register_scheme("FLOOR")
class FloorAdapter(PeriodSchemeAdapter):
    """Floor-based deployment (Section 5)."""

    name = "FLOOR"

    def build_scheme(self, scenario, params: Dict) -> DeploymentScheme:
        return FloorScheme(invitation_ttl=scenario.invitation_ttl, **params)


# ----------------------------------------------------------------------
# Round-based VD baselines (VOR, Minimax) with explosion dispersal
# ----------------------------------------------------------------------
def _run_vd_with_events(scenario, scheme, field, exploded, rounds):
    """Round-segmented VD execution with the scenario's event timeline.

    The VD baselines have no world, tree or messages, so events operate on
    the raw position list: failures drop entries (their distance is
    retired, not forgotten), joins append fresh entries, obstacle events
    mutate the shared field.  Event periods are mapped proportionally onto
    the round axis, so recovery metrics for VD runs are measured in
    *rounds* (message burst is always 0 — the baselines are silent).

    Returns ``(positions, total_distance, sensors_ever, rounds_executed,
    outcomes)``.
    """
    max_periods = max(1, scenario.build_config().max_periods)
    by_round = {}
    for index, event in enumerate(scenario.events):
        fire_round = min(
            rounds - 1,
            max(0, (event.at_period * rounds) // max_periods),
        )
        by_round.setdefault(fire_round, []).append((index, event))

    positions = list(exploded.positions)
    carried = list(exploded.per_sensor_distance)
    retired = 0.0
    sensors_ever = len(positions)
    trackers = []
    outcomes = []
    resolution = scenario.coverage_resolution
    rounds_executed = 0
    max_pending = max(by_round, default=-1)

    for round_index in range(rounds):
        for index, event in by_round.get(round_index, ()):
            pre_coverage = scheme.coverage(positions, resolution)
            pre_distance = retired + sum(carried)
            if event.kind == "failure":
                rng = event_rng(scenario.seed, index, "failure")
                victims = select_failure_victims(
                    rng, event, list(range(len(positions)))
                )
                for i in reversed(victims):
                    retired += carried.pop(i)
                    positions.pop(i)
            elif event.kind == "join":
                rng = event_rng(scenario.seed, index, "join")
                arrivals = draw_join_positions(field, event, rng)
                positions.extend(arrivals)
                carried.extend(0.0 for _ in arrivals)
                sensors_ever += len(arrivals)
            elif event.kind == "obstacle":
                field.add_obstacle(build_event_obstacle(event))
                for i, pos in enumerate(positions):
                    if not field.is_free(pos):
                        escaped = field.nearest_free(pos)
                        carried[i] += pos.distance_to(escaped)
                        positions[i] = escaped
            else:  # clear-obstacle
                obstacle_index = int(event.param("index", -1))
                if not 0 <= obstacle_index < len(field.obstacles):
                    raise ValueError(
                        f"clear-obstacle index {obstacle_index} out of range"
                    )
                field.remove_obstacle(obstacle_index)
            trackers.append(
                RecoveryTracker(
                    at_period=round_index,
                    kind=event.kind,
                    pre_coverage=pre_coverage,
                    post_coverage=scheme.coverage(positions, resolution),
                    pre_distance=pre_distance,
                    pre_messages=0,
                    baseline_window_messages=0,
                    burst_window=rounds,
                )
            )

        step = scheme.run(positions, rounds=1)
        moved = max(step.per_sensor_distance, default=0.0)
        positions = list(step.final_positions)
        for i, distance in enumerate(step.per_sensor_distance):
            carried[i] += distance
        rounds_executed = round_index + 1

        if trackers:
            coverage = scheme.coverage(positions, resolution)
            total_distance = retired + sum(carried)
            still_active = []
            for tracker in trackers:
                tracker.observe(round_index, coverage, total_distance, 0)
                if tracker.settled:
                    outcomes.append(tracker.outcome())
                else:
                    still_active.append(tracker)
            trackers = still_active
        if moved <= 1e-3 and round_index >= max_pending:
            break

    outcomes.extend(tracker.outcome() for tracker in trackers)
    outcomes.sort(key=lambda o: o.at_period)
    return (
        positions,
        retired + sum(carried),
        sensors_ever,
        rounds_executed,
        outcomes,
    )

class VDSchemeAdapter(SchemeAdapter):
    """Adapter base for the round-based, connectivity-ignorant VD schemes.

    From the scenario's (typically clustered) start the adapter first runs
    the minimum-cost explosion dispersal, then the scheme's Voronoi rounds;
    the recorded moving distance charges both stages, as in Fig 11.

    Scheme parameters: ``rounds`` (default 10) and ``check_voronoi``
    (default ``False``; when set, the record's ``all_voronoi_cells_correct``
    extra reports whether every locally-constructed cell was correct).
    """

    scheme_class = None  # type: ignore[assignment]

    def execute(self, spec: RunSpec) -> RunRecord:
        scenario = spec.scenario
        params = thaw_params(spec.scheme_params)
        rounds = int(params.pop("rounds", 10))
        check_voronoi = bool(params.pop("check_voronoi", False))
        _reject_unknown_params(self.name, params)

        field = scenario.build_field()
        config = scenario.build_config()
        rng = random.Random(scenario.seed)
        initial = scenario.placement_strategy()(config, field, rng)
        exploded = explode(initial, field, rng)

        scheme = self.scheme_class(
            field, scenario.communication_range, scenario.sensing_range
        )
        if scenario.events:
            positions, total_distance, sensors_ever, rounds_executed, outcomes = (
                _run_vd_with_events(scenario, scheme, field, exploded, rounds)
            )
        else:
            vd_result = scheme.run(exploded.positions, rounds=rounds)
            per_sensor = [
                explosion + rounds_distance
                for explosion, rounds_distance in zip(
                    exploded.per_sensor_distance, vd_result.per_sensor_distance
                )
            ]
            positions = vd_result.final_positions
            total_distance = sum(per_sensor)
            sensors_ever = len(per_sensor)
            rounds_executed = vd_result.rounds_executed
            outcomes = []
        extras = {}
        if check_voronoi:
            vd_check = diagram_is_correct(
                positions, scenario.communication_range, field
            )
            extras["all_voronoi_cells_correct"] = vd_check.all_correct
        return RunRecord(
            spec=spec,
            scheme=self.name,
            coverage=scheme.coverage(positions, scenario.coverage_resolution),
            average_moving_distance=(
                total_distance / sensors_ever if sensors_ever else 0.0
            ),
            total_moving_distance=total_distance,
            total_messages=0,
            connected=positions_are_connected(
                positions, scenario.communication_range
            ),
            periods_executed=rounds_executed,
            extras=extras,
            events=tuple(outcomes),
            final_positions=(
                tuple(p.as_tuple() for p in positions)
                if spec.keep_positions
                else None
            ),
        )


@register_scheme("VOR")
class VorAdapter(VDSchemeAdapter):
    """The VOR baseline: move toward the farthest Voronoi vertex."""

    name = "VOR"
    scheme_class = VorScheme


@register_scheme("Minimax")
class MinimaxAdapter(VDSchemeAdapter):
    """The Minimax baseline: move to the cell's minimax point."""

    name = "Minimax"
    scheme_class = MinimaxScheme


# ----------------------------------------------------------------------
# Analytic baselines (no simulation)
# ----------------------------------------------------------------------
@register_scheme("OPT")
class OptAdapter(SchemeAdapter):
    """The centralised OPT strip pattern (coverage upper baseline, Fig 9)."""

    name = "OPT"

    def execute(self, spec: RunSpec) -> RunRecord:
        _reject_unknown_params(self.name, thaw_params(spec.scheme_params))
        scenario = spec.scenario
        field = scenario.build_field()
        pattern = OptStripPattern(
            field, scenario.communication_range, scenario.sensing_range
        )
        positions = pattern.positions_for_count(scenario.sensor_count)
        return RunRecord(
            spec=spec,
            scheme=self.name,
            coverage=field.coverage_fraction(
                positions, scenario.sensing_range, scenario.coverage_resolution
            ),
            average_moving_distance=0.0,
            total_moving_distance=0.0,
            total_messages=0,
            connected=True,
            final_positions=(
                tuple(p.as_tuple() for p in positions)
                if spec.keep_positions
                else None
            ),
        )


@register_scheme("OPT-Hungarian")
class OptHungarianAdapter(SchemeAdapter):
    """Hungarian lower bound on the distance to reach the OPT pattern."""

    name = "OPT-Hungarian"

    def execute(self, spec: RunSpec) -> RunRecord:
        _reject_unknown_params(self.name, thaw_params(spec.scheme_params))
        scenario = spec.scenario
        field = scenario.build_field()
        pattern = OptStripPattern(
            field, scenario.communication_range, scenario.sensing_range
        )
        targets = pattern.positions_for_count(scenario.sensor_count)
        average, coverage = hungarian_bound(scenario, targets, field)
        return RunRecord(
            spec=spec,
            scheme=self.name,
            coverage=coverage,
            average_moving_distance=average,
            total_moving_distance=average * scenario.sensor_count,
            total_messages=0,
            connected=True,
            final_positions=(
                tuple(p.as_tuple() for p in targets)
                if spec.keep_positions
                else None
            ),
        )
