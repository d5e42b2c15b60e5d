"""Scenario validity checking.

Every generated field must satisfy the paper's standing assumptions before
a scheme is allowed to run on it (Section 3.1): the free space must be one
connected region (obstacles "do not partition the field"), the base
station at the origin must sit in — and therefore be reachable from — that
free region, and enough free area must remain for deployment to be
meaningful at all.

:class:`ScenarioValidator` centralises those checks.  It is the only
free-space connectivity check: every generator in
:mod:`repro.scenarios.generators`, the Fig 13 ``random-obstacles`` layout
included, runs under it with bounded retry (:func:`generate_validated`).

The connectivity and reachability checks share one grid flood fill: the
field's cached obstacle mask (:meth:`repro.field.Field.
grid_and_obstacle_mask`) is flooded with 4-connectivity from the cell
containing the base station, so a single BFS answers both "is the free
space connected" and "can the base station reach it".
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..api.scenario import ScenarioSpec
from ..field import Field
from ..geometry import Vec2

__all__ = [
    "ValidationReport",
    "ScenarioValidator",
    "generate_validated",
    "scenario_fingerprint",
]


def flood_fill_count(free: np.ndarray, start: Tuple[int, int]) -> int:
    """Number of cells 4-connected to ``start`` in a 2-D boolean mask.

    Returns 0 when the start cell itself is not free.
    """
    nx, ny = free.shape
    if not free[start]:
        return 0
    visited = np.zeros_like(free, dtype=bool)
    visited[start] = True
    stack = [start]
    count = 0
    while stack:
        cx, cy = stack.pop()
        count += 1
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            mx, my = cx + dx, cy + dy
            if 0 <= mx < nx and 0 <= my < ny and free[mx, my] and not visited[mx, my]:
                visited[mx, my] = True
                stack.append((mx, my))
    return count


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one field (and optionally its placement)."""

    #: Whether the non-obstacle area forms a single connected region.
    free_space_connected: bool
    #: Whether the base station's grid cell is free (and hence, when the
    #: free space is connected, every free point is reachable from it).
    base_station_reachable: bool
    #: Fraction of grid cells not inside an obstacle.
    free_area_fraction: float
    #: The minimum free fraction the validator required.
    min_free_fraction: float
    #: Indices of placed sensors that are not in free space (empty unless
    #: positions were validated).
    blocked_sensors: Tuple[int, ...] = ()
    #: Problems found in the scenario's lifecycle event timeline (empty
    #: unless a timeline was validated).
    timeline_issues: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the scenario passed every check."""
        return not self.issues()

    def issues(self) -> List[str]:
        """Human-readable list of failed checks (empty when valid)."""
        problems: List[str] = []
        if not self.free_space_connected:
            problems.append("free space is not a single connected region")
        if not self.base_station_reachable:
            problems.append("base station is not in reachable free space")
        if self.free_area_fraction < self.min_free_fraction:
            problems.append(
                f"free area fraction {self.free_area_fraction:.2f} below "
                f"minimum {self.min_free_fraction:.2f}"
            )
        if self.blocked_sensors:
            problems.append(
                f"{len(self.blocked_sensors)} sensors start inside an "
                f"obstacle or out of bounds (e.g. #{self.blocked_sensors[0]})"
            )
        problems.extend(self.timeline_issues)
        return problems


@dataclass(frozen=True)
class ScenarioValidator:
    """Shared validity predicate for generated fields and placements."""

    #: Base-station position (the paper fixes it at the origin).
    base_station: Vec2 = Vec2(0.0, 0.0)
    #: Minimum fraction of the field that must remain free.
    min_free_fraction: float = 0.25
    #: Flood-fill grid resolution; ``None`` scales with the field
    #: (``size / 64``, at least 2 m) so narrow passages stay resolved.
    resolution: Optional[float] = None

    def _resolution_for(self, field: Field) -> float:
        if self.resolution is not None:
            return self.resolution
        return max(2.0, min(field.width, field.height) / 64.0)

    # ------------------------------------------------------------------
    # Field-level checks
    # ------------------------------------------------------------------
    def validate_field(self, field: Field) -> ValidationReport:
        """Run the connectivity / reachability / free-area checks."""
        resolution = self._resolution_for(field)
        grid, obstacle_mask = field.grid_and_obstacle_mask(resolution)
        nx, ny = grid.shape
        free = (~obstacle_mask).reshape(nx, ny)
        total_free = int(free.sum())
        free_fraction = total_free / free.size if free.size else 0.0
        if total_free == 0:
            return ValidationReport(False, False, 0.0, self.min_free_fraction)

        base_i = min(nx - 1, max(0, int(self.base_station.x / resolution)))
        base_j = min(ny - 1, max(0, int(self.base_station.y / resolution)))
        base_free = bool(free[base_i, base_j])

        # One BFS answers both questions: flooded from the base cell when it
        # is free (reachable set == base station's component), otherwise
        # from the first free cell (pure connectivity; the base check has
        # already failed).
        start = (base_i, base_j) if base_free else tuple(np.argwhere(free)[0])
        count = flood_fill_count(free, start)

        return ValidationReport(
            free_space_connected=count == total_free,
            base_station_reachable=base_free,
            free_area_fraction=free_fraction,
            min_free_fraction=self.min_free_fraction,
        )

    # ------------------------------------------------------------------
    # Scenario-level checks
    # ------------------------------------------------------------------
    def validate_positions(
        self, field: Field, positions: Sequence[Vec2]
    ) -> Tuple[int, ...]:
        """Indices of positions that are not valid sensor start points."""
        return tuple(
            i for i, p in enumerate(positions) if not field.is_free(p)
        )

    def validate_timeline(
        self, spec: ScenarioSpec, field: Optional[Field] = None
    ) -> Tuple[str, ...]:
        """Problems in the scenario's lifecycle event timeline.

        Checks every event against the scenario it will fire in: periods
        must fall inside the horizon, failure fractions in ``[0, 1]``,
        counts non-negative, join staging points and event obstacles
        inside the field rectangle, and every ``clear-obstacle`` must
        reference an obstacle that exists when it fires (layout obstacles
        plus earlier ``obstacle`` events, minus earlier clears) — the
        same running count :class:`repro.sim.lifecycle.FaultInjector`
        maintains at execution time.
        """
        if not spec.events:
            return ()
        if field is None:
            field = spec.build_field()
        horizon = int(spec.duration / spec.period)
        problems: List[str] = []
        # The injector fires events in (period, timeline-index) order; the
        # running obstacle count must be simulated in that same order.
        fire_order = sorted(
            enumerate(spec.events), key=lambda pair: (pair[1].at_period, pair[0])
        )
        obstacle_count = len(field.obstacles)
        for index, event in fire_order:
            tag = f"event #{index} ({event.kind}@{event.at_period})"
            if event.at_period >= horizon:
                problems.append(
                    f"{tag}: fires at period {event.at_period} but the "
                    f"horizon has only {horizon} periods"
                )
            if event.kind == "failure":
                fraction = event.param("fraction")
                if fraction is not None and not 0.0 <= fraction <= 1.0:
                    problems.append(
                        f"{tag}: failure fraction {fraction} outside [0, 1]"
                    )
                count = event.param("count")
                if count is not None and count < 0:
                    problems.append(f"{tag}: negative failure count {count}")
            elif event.kind == "join":
                count = event.param("count", 0)
                if count < 0:
                    problems.append(f"{tag}: negative join count {count}")
                x, y = event.param("x"), event.param("y")
                if x is not None and not (
                    0.0 <= x <= field.width and 0.0 <= y <= field.height
                ):
                    problems.append(
                        f"{tag}: staging point ({x}, {y}) outside the "
                        f"{field.width} x {field.height} field"
                    )
            elif event.kind == "obstacle":
                xmin, ymin = event.param("xmin"), event.param("ymin")
                xmax, ymax = event.param("xmax"), event.param("ymax")
                if not (
                    0.0 <= xmin < xmax <= field.width
                    and 0.0 <= ymin < ymax <= field.height
                ):
                    problems.append(
                        f"{tag}: obstacle rectangle "
                        f"({xmin}, {ymin})-({xmax}, {ymax}) not inside the "
                        f"{field.width} x {field.height} field"
                    )
                obstacle_count += 1
            elif event.kind == "clear-obstacle":
                target = int(event.param("index", -1))
                if not 0 <= target < obstacle_count:
                    problems.append(
                        f"{tag}: clears obstacle {target} but only "
                        f"{obstacle_count} exist when it fires"
                    )
                else:
                    obstacle_count -= 1
        return tuple(problems)

    def validate_scenario(self, spec: ScenarioSpec) -> ValidationReport:
        """Validate a full scenario: its field, placement and timeline."""
        field = spec.build_field()
        report = self.validate_field(field)
        blocked = self.validate_positions(field, spec.initial_positions(field))
        return ValidationReport(
            free_space_connected=report.free_space_connected,
            base_station_reachable=report.base_station_reachable,
            free_area_fraction=report.free_area_fraction,
            min_free_fraction=report.min_free_fraction,
            blocked_sensors=blocked,
            timeline_issues=self.validate_timeline(spec, field),
        )


def generate_validated(
    builder: Callable[[random.Random], Field],
    seed: int,
    validator: Optional[ScenarioValidator] = None,
    max_attempts: int = 25,
) -> Field:
    """Run a seeded generator under the validator with bounded retry.

    ``builder`` receives a :class:`random.Random` and returns a candidate
    field; invalid candidates are rejected and the builder is re-invoked on
    the same (advanced) stream, so the result is a pure function of
    ``seed``.  Raises :class:`RuntimeError` with the last report's issues
    when no candidate passes within ``max_attempts``.
    """
    checker = validator or ScenarioValidator()
    rng = random.Random(seed)
    last_issues: List[str] = []
    for _ in range(max_attempts):
        candidate = builder(rng)
        report = checker.validate_field(candidate)
        if report.ok:
            return candidate
        last_issues = report.issues()
    raise RuntimeError(
        f"no valid field layout within {max_attempts} attempts; "
        f"last rejection: {last_issues}"
    )


def scenario_fingerprint(
    spec: ScenarioSpec,
    field: Optional[Field] = None,
    positions: Optional[Sequence[Vec2]] = None,
) -> str:
    """Deterministic content hash of a scenario's field and placement.

    Two calls with the same spec (same seed) must return the same digest —
    the determinism contract of the generator subsystem, pinned by the
    registry-wide property tests.  The hash covers the field rectangle,
    every obstacle's vertices and the initial sensor positions.  Callers
    that already materialised the scenario can pass ``field`` /
    ``positions`` to skip the rebuild.
    """
    if field is None:
        field = spec.build_field()
    if positions is None:
        positions = spec.initial_positions(field)
    payload = repr(
        (
            round(field.width, 9),
            round(field.height, 9),
            tuple(
                tuple((round(v.x, 9), round(v.y, 9)) for v in ob.polygon.vertices)
                for ob in field.obstacles
            ),
            tuple((round(p.x, 9), round(p.y, 9)) for p in positions),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
