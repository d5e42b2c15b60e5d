"""The paper's literal step ladder, the seed CPVF dynamics, and the seed
neighbour-table and coverage algorithms.

The seed neighbour table, coverage scan and CPVF dynamics are kept
verbatim here (rather than in the library) so the perf floors of
``benchmarks/test_perf_spatial.py`` keep timing the seed algorithms even
as the library improves (the timers live in ``benchmarks/perfbench.py``
and check each seed answer against the library before timing).
:class:`SeedCPVF` is also the reference the production CPVF modes are
compared against (message parity, plateau agreement, parent-change
parity); its scalar force terms (:func:`sensor_force`,
:func:`resultant_force`, :func:`force_direction`) are the reference for
``VirtualForceModel``'s batched sensor term,
:func:`reference_subtree_lock_depth` for the lock depth CPVF caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core import CPVFScheme, VirtualForceModel
from repro.core.connectivity import STEP_FRACTIONS
from repro.field import Field
from repro.geometry import Vec2
from repro.network import BASE_STATION_ID, MessageType


@dataclass(frozen=True)
class NeighborMotion:
    """What a sensor knows about a neighbour it must stay connected to.

    ``current`` is the neighbour's position now (time ``t``) and
    ``planned_end`` its position at the end of its own period (``t'``); for
    a stationary neighbour the two coincide.
    """

    current: Vec2
    planned_end: Vec2

    @staticmethod
    def stationary(position: Vec2) -> "NeighborMotion":
        """A neighbour that is not moving this period."""
        return NeighborMotion(position, position)


def step_is_valid(
    start: Vec2,
    end: Vec2,
    neighbors: Iterable[NeighborMotion],
    communication_range: float,
) -> bool:
    """Whether moving ``start -> end`` keeps every required link alive.

    Checks the two connectivity-preserving conditions of Section 4.2
    against every neighbour the sensor needs to retain.
    """
    for nb in neighbors:
        # Condition 1: at the neighbour's period end the link still holds
        # (our position is somewhere on [start, end]; by convexity it is
        # enough that both endpoints are within range of nb's endpoint and
        # start point — see Appendix A).
        if start.distance_to(nb.planned_end) > communication_range + 1e-9:
            return False
        # Condition 2: our end-of-period position is within range of the
        # neighbour's end-of-period position.
        if end.distance_to(nb.planned_end) > communication_range + 1e-9:
            return False
        # Also keep range with the neighbour's current position, covering
        # the case where the neighbour cancels its own move.
        if end.distance_to(nb.current) > communication_range + 1e-9:
            return False
    return True


def max_valid_step_reference(
    position: Vec2,
    direction: Vec2,
    max_step: float,
    neighbors: Sequence[NeighborMotion],
    communication_range: float,
    fractions: Sequence[float] = STEP_FRACTIONS,
) -> float:
    """The paper's candidate ladder, evaluated literally.

    The parity reference for
    :func:`repro.core.connectivity.max_valid_step_points` (the two must
    agree exactly on stationary links) and the ladder of :class:`SeedCPVF`.
    """
    unit = direction.normalized()
    if unit.norm() == 0.0 or max_step <= 0.0:
        return 0.0
    for fraction in fractions:
        step = fraction * max_step
        if step <= 0.0:
            return 0.0
        end = position + unit * step
        if step_is_valid(position, end, neighbors, communication_range):
            return step
    return 0.0


def sensor_force(model: VirtualForceModel, position: Vec2, other: Vec2) -> Vec2:
    """Repulsive force exerted on ``position`` by a neighbour at ``other``.

    Magnitude decreases linearly from ``sensor_gain`` at distance zero to
    zero at ``repulsion_distance``; zero beyond it.  The scalar form of
    :meth:`VirtualForceModel.sensor_force_sums`.
    """
    delta = position - other
    dist = delta.norm()
    if dist >= model.repulsion_distance:
        return Vec2.zero()
    if dist <= 1e-9:
        # Coincident sensors: push in an arbitrary fixed direction.
        return Vec2(model.sensor_gain, 0.0)
    magnitude = (
        model.sensor_gain
        * (model.repulsion_distance - dist)
        / model.repulsion_distance
    )
    return delta.normalized() * magnitude


def resultant_force(
    model: VirtualForceModel,
    position: Vec2,
    neighbor_positions: Iterable[Vec2],
    field: Optional[Field] = None,
) -> Vec2:
    """Sum of all repulsive forces acting on a sensor at ``position``."""
    total = Vec2.zero()
    for other in neighbor_positions:
        total = total + sensor_force(model, position, other)
    if field is not None:
        total = total + Vec2(
            *model.force_from_obstacles(position.x, position.y, field)
        )
    return total


def force_direction(
    model: VirtualForceModel,
    position: Vec2,
    neighbor_positions: Sequence[Vec2],
    field: Optional[Field] = None,
) -> Vec2:
    """Unit direction of the resultant force (zero vector at equilibrium)."""
    return resultant_force(model, position, neighbor_positions, field).normalized()


class SeedCPVF(CPVFScheme):
    """The seed CPVF dynamics: sensors decide and move one after the other.

    Within a period each connected sensor evaluates its own force
    direction from live positions (seeing earlier movers' new positions),
    runs the literal step ladder against its parent and children, and,
    when blocked, runs one full ladder per parent candidate.  Connectivity
    stage, lock handshake and message accounting are the library's; the
    move tail (:meth:`_finish_move`) is the ``Vec2`` form of the one in
    the library's move loop.
    """

    def _apply_virtual_forces(
        self, world, table: Dict[int, List[int]], neighbors
    ) -> None:
        config = world.config
        for sensor in [s for s in world.sensors if s.is_connected()]:
            direction = force_direction(
                self._forces,
                sensor.position,
                [world.sensor(n).position for n in table.get(sensor.sensor_id, [])],
                world.field,
            )
            if direction.x == 0.0 and direction.y == 0.0:
                sensor.previous_position = sensor.position
                continue
            required = self._required_neighbors(world, sensor)
            if required:
                world.routing.record_one_hop(
                    MessageType.NEIGHBOR_STATE, len(required)
                )
            step = max_valid_step_reference(
                sensor.position,
                direction,
                config.max_step,
                required,
                config.communication_range,
            )
            if step <= 0.0 and self._allow_parent_change:
                step = self._try_parent_change(
                    world, sensor, direction.x, direction.y, table
                )
            if step <= 0.0:
                sensor.previous_position = sensor.position
                continue
            self._finish_move(world, sensor, direction, step)

    def _finish_move(self, world, sensor, direction: Vec2, step: float) -> None:
        """Clip a validated step to free space, apply oscillation
        avoidance, and commit the move."""
        position = sensor.motion.position
        step = world.field.max_free_travel(
            position.x, position.y, direction.x, direction.y, step
        )
        planned_end = position + direction.normalized() * step
        previous = sensor.previous_position
        sensor.previous_position = position
        if not self._avoidance.should_cancel(
            step, position, planned_end, previous
        ):
            sensor.motion.move_to(planned_end)

    def _required_neighbors(self, world, sensor) -> List[NeighborMotion]:
        """Connections the sensor must preserve: its parent and children."""
        tree = world.tree
        parent = tree.parent.get(sensor.sensor_id)
        children = tree.children.get(sensor.sensor_id, ())
        required: List[NeighborMotion] = []
        if parent == BASE_STATION_ID:
            required.append(NeighborMotion.stationary(world.base_station))
        elif parent is not None:
            required.append(NeighborMotion.stationary(world.sensor(parent).position))
        for child in children:
            required.append(NeighborMotion.stationary(world.sensor(child).position))
        return required

    def _adopt_parent(
        self, world, sensor, dir_x, dir_y, candidates, snapshot
    ) -> float:
        return self._best_parent_ladder(
            world, sensor, Vec2(dir_x, dir_y), [c for c, _, _ in candidates]
        )

    def _best_parent_ladder(
        self, world, sensor, direction: Vec2, candidates: List[int]
    ) -> float:
        """Seed candidate scan: one full step ladder per candidate, keeping
        the first candidate that attains the best step."""
        config = world.config
        children_motions = [
            NeighborMotion.stationary(world.sensor(c).position)
            for c in world.tree.children_of(sensor.sensor_id)
        ]
        best_step = 0.0
        best_parent: Optional[int] = None
        for candidate in candidates:
            parent_pos = (
                world.base_station
                if candidate == BASE_STATION_ID
                else world.sensor(candidate).position
            )
            required = children_motions + [NeighborMotion.stationary(parent_pos)]
            step = max_valid_step_reference(
                sensor.position,
                direction,
                config.max_step,
                required,
                config.communication_range,
            )
            if step > best_step:
                best_step = step
                best_parent = candidate
        if best_parent is not None and best_step > 0.0:
            world.tree.reparent(sensor.sensor_id, best_parent)
            world.telemetry.count("cpvf.parent_changes", 1)
            return best_step
        return 0.0


def reference_subtree_lock_depth(tree, root: int) -> int:
    """BFS depth of the subtree rooted at ``root`` (0 for a leaf).

    The level-by-level walk ``CPVFScheme`` ran before it cached one BFS
    per sensor and tree version; its ``_subtree`` must give this depth.
    """
    depth = 0
    frontier = [root]
    seen = {root}
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for child in tree.children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    next_frontier.append(child)
        if next_frontier:
            depth += 1
        frontier = next_frontier
    return depth

def seed_neighbor_table(sensors, communication_range) -> Dict[int, List[int]]:
    """The seed neighbour table: dense ``sqrt`` matrix, row loops."""
    ids = [s.sensor_id for s in sensors]
    if not ids:
        return {}
    xs = np.array([s.position.x for s in sensors])
    ys = np.array([s.position.y for s in sensors])
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    dist = np.sqrt(dx * dx + dy * dy)
    table: Dict[int, List[int]] = {i: [] for i in ids}
    for i in range(len(sensors)):
        within = np.flatnonzero(dist[i] <= communication_range + 1e-9)
        for j in within:
            if j == i:
                continue
            table[ids[i]].append(ids[int(j)])
    return table


def seed_coverage_fraction(field, positions, sensing_range, resolution) -> float:
    """The seed coverage scan: every disk against the uncovered full grid."""
    grid, obstacle_mask = field.grid_and_obstacle_mask(resolution)
    px, py = grid.point_arrays()
    covered = np.zeros(grid.num_points, dtype=bool)
    if positions and sensing_range > 0:
        r_sq = sensing_range * sensing_range
        for p in positions:
            remaining = ~covered
            if not remaining.any():
                break
            dx = px[remaining] - p.x
            dy = py[remaining] - p.y
            hit = dx * dx + dy * dy <= r_sq
            idx = np.flatnonzero(remaining)
            covered[idx[hit]] = True
    free = ~obstacle_mask
    return grid.fraction(covered & free, domain=free)
