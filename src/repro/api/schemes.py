"""Scheme adapters: one execution interface over every deployment scheme.

The paper evaluates two kinds of scheme:

* the **period-based** CPVF and FLOOR protocols and the Voronoi baselines
  VOR and Minimax (explosion dispersal, then round-based Voronoi moves),
  which all run on the period-synchronous
  :class:`~repro.sim.engine.SimulationEngine` — and so all get traces,
  telemetry, convergence and lifecycle events from the same code;
* the **analytic** OPT strip pattern and the Hungarian moving-distance
  lower bound, which need no simulation at all.

The :class:`SchemeAdapter` interface hides the difference: every adapter
turns a :class:`~repro.api.specs.RunSpec` into a
:class:`~repro.api.specs.RunRecord`, and experiments just declare grids of
run specs.  Adapters register themselves by name
(``@register_scheme("CPVF")``), so new schemes plug in without touching
the experiment layer.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import Dict

from ..assignment import minimum_distance_matching
from ..baselines import MinimaxScheme, OptStripPattern, VorScheme
from ..core import CPVFScheme, FloorScheme
from ..metrics import positions_are_connected
from ..obs import NULL_TELEMETRY, PhaseStat, Telemetry, TelemetrySummary
from ..sim import DeploymentScheme, SimulationEngine
from ..voronoi import diagram_is_correct
from .registry import register_scheme, scheme_registry
from .scenario import thaw_params
from .specs import RunRecord, RunSpec

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
    real phase spans inside the engine; the analytic schemes, which have
    no engine, get a minimal one-phase ``run.execute`` summary so profiled
    sweeps render uniformly.
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
# Period-based schemes (CPVF, FLOOR, VOR, Minimax) on the simulation engine
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

    def record_fields(self, world, result, params: Dict) -> Dict:
        """The record's ``connected``, ``extras`` and ``final_positions``.

        ``final_positions`` is a list of :class:`~repro.geometry.Vec2`;
        the record keeps it only when the spec asks for positions.
        """
        return {
            "connected": result.connected,
            "extras": {"obstacle_count": len(world.field.obstacles)},
            "final_positions": world.positions(),
        }

    def execute(self, spec: RunSpec) -> RunRecord:
        scenario = spec.scenario
        world = scenario.build_world()
        if spec.network is not None:
            # Structural specs build the shared perfect instance, so the
            # assignment is behaviour-preserving in that case.
            world.network = spec.network.build(scenario.seed)
        params = thaw_params(spec.scheme_params)
        scheme = self.build_scheme(scenario, params)
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
        scheme_fields = self.record_fields(world, result, params)
        return RunRecord(
            spec=spec,
            scheme=self.name,
            coverage=result.final_coverage,
            average_moving_distance=result.average_moving_distance,
            total_moving_distance=result.total_moving_distance,
            total_messages=result.total_messages,
            connected=scheme_fields["connected"],
            periods_executed=result.periods_executed,
            converged_at=result.converged_at,
            extras={
                **scheme_fields["extras"],
                # The uncharged-correction ledger (`MotionModel.relocate`).
                "uncharged_m": sum(s.motion.uncharged for s in world.sensors),
            },
            trace=tuple(result.trace),
            events=tuple(result.events),
            final_positions=(
                tuple(p.as_tuple() for p in scheme_fields["final_positions"])
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


class VDSchemeAdapter(PeriodSchemeAdapter):
    """Adapter base for the connectivity-ignorant VD schemes.

    Scheme parameters: ``rounds`` (default 10) and ``check_voronoi``
    (default ``False``; when set, the record's ``all_voronoi_cells_correct``
    extra reports whether every locally-constructed cell was correct).
    The VD record's ``connected`` is whether the live sensors form one
    radio component among themselves (there is no base station link), and
    its ``final_positions`` are the live sensors'.
    """

    scheme_class = None  # type: ignore[assignment]

    def build_scheme(self, scenario, params: Dict) -> DeploymentScheme:
        params = dict(params)
        rounds = int(params.pop("rounds", 10))
        params.pop("check_voronoi", None)
        _reject_unknown_params(self.name, params)
        return self.scheme_class(rounds=rounds)

    def record_fields(self, world, result, params: Dict) -> Dict:
        positions = [s.position for s in world.alive_sensors()]
        rc = world.config.communication_range
        extras = {}
        if params.get("check_voronoi"):
            vd_check = diagram_is_correct(positions, rc, world.field)
            extras["all_voronoi_cells_correct"] = vd_check.all_correct
        return {
            "connected": positions_are_connected(positions, rc),
            "extras": extras,
            "final_positions": positions,
        }


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
            connected=positions_are_connected(
                positions, scenario.communication_range
            ),
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
            connected=positions_are_connected(
                targets, scenario.communication_range
            ),
            final_positions=(
                tuple(p.as_tuple() for p in targets)
                if spec.keep_positions
                else None
            ),
        )
