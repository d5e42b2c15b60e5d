"""The Voronoi-diagram based baselines VOR and Minimax (Wang et al., INFOCOM'04).

Both schemes are round-based and *connectivity-ignorant*: in every round each
sensor constructs its Voronoi cell from the neighbours it can hear (i.e. the
ones within communication range — which is why small ``rc/rs`` yields
incorrect cells, Fig 1/10 of the paper) and then moves:

* **VOR** — toward its farthest Voronoi vertex, stopping when its sensing
  range reaches that vertex, and never moving more than ``rc / 2`` in one
  round;
* **Minimax** — to the point of its cell minimising the distance to its
  farthest Voronoi vertex (the centre of the minimum enclosing circle of the
  cell's vertices).

Both run on the period-synchronous
:class:`~repro.sim.engine.SimulationEngine` like CPVF and FLOOR.  From the
(typically clustered) start, :meth:`~_VDSchemeBase.initialize` first runs
the minimum-cost explosion dispersal of :mod:`repro.baselines.explosion`;
the ``rounds`` Voronoi rounds are then spread evenly over the horizon, one
every ``max_periods // rounds`` periods.  Every move goes through the
sensor's odometer, so the recorded moving distance charges both stages, as
in Fig 11.
"""

from __future__ import annotations

import math
from typing import Optional

from ..geometry import Vec2
from ..sim import DeploymentScheme, SimulationConfig, World
from ..voronoi.local import local_cell
from .explosion import explode

__all__ = ["MOVEMENT_TOLERANCE", "VorScheme", "MinimaxScheme"]

#: A sensor whose target is at most this far away stays put, and a round
#: in which no sensor moves farther has stabilised the layout.
MOVEMENT_TOLERANCE = 1e-3


class _VDSchemeBase(DeploymentScheme):
    """Shared round loop of the two VD-based schemes."""

    name = "VD"

    def __init__(self, rounds: int = 10):
        self.rounds = rounds
        self._stride = 1
        self._rounds_done = 0
        self._last_moved = math.inf

    # ------------------------------------------------------------------
    # Per-sensor move target (scheme-specific)
    # ------------------------------------------------------------------
    def _move_target(
        self, cell, position: Vec2, config: SimulationConfig
    ) -> Optional[Vec2]:
        raise NotImplementedError

    def _cell(self, index: int, positions, world: World):
        """The cell sensor ``index`` builds from the neighbours it hears."""
        return local_cell(
            index, positions, world.config.communication_range, world.field
        )

    # ------------------------------------------------------------------
    # DeploymentScheme
    # ------------------------------------------------------------------
    def initialize(self, world: World) -> None:
        """Explosion dispersal from the start, charged to the odometers."""
        self._stride = max(1, world.config.max_periods // max(1, self.rounds))
        exploded = explode(world.positions(), world.field, world.rng)
        for sensor, target in zip(world.sensors, exploded.positions):
            sensor.motion.move_to(target)

    def step(self, world: World) -> None:
        """One Voronoi round every ``stride`` periods, until ``rounds``.

        Every target is computed from the positions before the round.
        """
        if self._rounds_done >= self.rounds or world.period_index % self._stride:
            return
        self._rounds_done += 1
        field = world.field
        alive = world.alive_sensors()
        positions = [s.position for s in alive]
        moves = []
        for i, position in enumerate(positions):
            target = self._move_target(
                self._cell(i, positions, world), position, world.config
            )
            if target is None:
                continue
            target = field.nearest_free(target)
            if position.distance_to(target) > MOVEMENT_TOLERANCE:
                moves.append((alive[i], target))
        self._last_moved = max(
            (sensor.motion.move_to(target) for sensor, target in moves),
            default=0.0,
        )

    def has_converged(self, world: World) -> bool:
        return (
            self._rounds_done >= self.rounds
            or self._last_moved <= MOVEMENT_TOLERANCE
        )

    def on_world_changed(self, world: World, change) -> None:
        # The layout the last round settled is gone; wait for a new round.
        self._last_moved = math.inf


class VorScheme(_VDSchemeBase):
    """The VOR baseline: move toward the farthest Voronoi vertex."""

    name = "VOR"

    def _move_target(
        self, cell, position: Vec2, config: SimulationConfig
    ) -> Optional[Vec2]:
        farthest = cell.farthest_vertex()
        if farthest is None:
            return None
        rs = config.sensing_range
        distance_to_vertex = position.distance_to(farthest)
        if distance_to_vertex <= rs:
            # The farthest vertex is already sensed; no move needed.
            return None
        # Move so that the sensing range just reaches the vertex, but no
        # farther than rc / 2 per round.
        desired = distance_to_vertex - rs
        step = min(desired, config.communication_range / 2.0)
        return position + position.towards(farthest) * step


class MinimaxScheme(_VDSchemeBase):
    """The Minimax baseline: move to the cell's minimax point."""

    name = "Minimax"

    def _move_target(
        self, cell, position: Vec2, config: SimulationConfig
    ) -> Optional[Vec2]:
        return cell.minimax_point()
