"""The Connectivity-Preserved Virtual Force (CPVF) scheme (Section 4).

CPVF proceeds in two stages that in practice overlap in time:

1. **Achieving connectivity** — sensors in the immediate vicinity of the
   base station learn they are connected via a network flood; every other
   sensor walks toward the base station with BUG2 (right-hand rule) under
   the lazy-movement strategy, stopping as soon as it enters the
   communication range of a connected sensor, which becomes its tree parent.
2. **Maximising coverage** — connected sensors move under virtual forces.
   The force only chooses the *direction*; the step size is the largest
   candidate satisfying the connectivity-preserving conditions with respect
   to the sensor's tree parent and children.  A sensor that cannot move at
   all under its current parent may attempt to change parent, which requires
   locking its subtree (LockTree / UnLockTree) to avoid creating loops.

Optionally, the one-step or two-step oscillation-avoidance rule of
Section 6.3 suppresses unproductive movement.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import EPS, Vec2
from ..mobility import Bug2Planner, Handedness
from ..network import BASE_STATION_ID, LINK_EPS, MessageType
from ..sensors import CONNECTED_STATES, Sensor, SensorState
from ..sim import DeploymentScheme, World
from ..spatial import NeighborSnapshot
from .connect import attach_reachable, flood_tree, walkers
from .connectivity import STEP_FRACTIONS, max_valid_step_points
from .lazy import LazyMovementController
from .oscillation import OscillationAvoidance, OscillationMode
from .virtual_force import VirtualForceModel

__all__ = ["CPVFScheme"]


class _PeriodSnapshot:
    """Float positions and connectivity of the sensors in one CPVF period.

    ``xs``/``ys`` hold every sensor's position in id order, ``connected``
    the ids in a connected state and ``connected_ids`` the same ids in
    ascending order.  The move loop writes each committed move back, so
    the lists equal the live positions for the whole period (sensor
    states do not change inside it).
    """

    __slots__ = ("xs", "ys", "connected", "connected_ids")

    def __init__(self, world: World):
        xs: List[float] = []
        ys: List[float] = []
        connected_ids: List[int] = []
        for sensor in world.sensors:
            position = sensor.motion.position
            xs.append(position.x)
            ys.append(position.y)
            if sensor.state in CONNECTED_STATES:
                connected_ids.append(sensor.sensor_id)
        self.xs = xs
        self.ys = ys
        self.connected_ids = connected_ids
        self.connected = set(connected_ids)


class CPVFScheme(DeploymentScheme):
    """Connectivity-Preserved Virtual Force deployment.

    Each period the forces of all connected sensors are evaluated in one
    numpy batch from start-of-period positions (the paper's
    simultaneous-decision semantics); the step ladder then runs sensor by
    sensor against live link positions.  Both read one float snapshot of
    the period (:class:`_PeriodSnapshot`), which the move loop keeps live
    by writing back every committed move.  The seed dynamics — sensors
    deciding one after the other, each seeing earlier movers' new
    positions — are kept as the test oracle ``tests.oracles.SeedCPVF``.
    """

    name = "CPVF"

    def __init__(
        self,
        allow_parent_change: bool = True,
        oscillation_delta: Optional[float] = None,
        oscillation_mode: str = "one-step",
    ):
        """Create the scheme.

        Parameters
        ----------
        allow_parent_change:
            Whether a sensor blocked by its current parent may re-parent
            (the paper found this gives sensors more freedom to explore).
        oscillation_delta / oscillation_mode:
            Oscillation-avoidance factor and rule (Section 6.3); ``None``
            disables avoidance, which is the paper's default CPVF.

        The pairwise repulsion threshold of the virtual forces is ``2 * rs``
        of the simulated sensors.
        """
        self._allow_parent_change = allow_parent_change
        self._oscillation_delta = oscillation_delta
        self._oscillation_mode = OscillationMode.from_string(oscillation_mode)
        self._planner: Optional[Bug2Planner] = None
        self._forces: Optional[VirtualForceModel] = None
        self._lazy: Optional[LazyMovementController] = None
        self._avoidance: Optional[OscillationAvoidance] = None
        #: Per sensor its ``(subtree, lock depth)``, valid for the tree at
        #: ``_tree_version``: a tree change from elsewhere drops them all,
        #: CPVF's own parent change only the entries it alters.
        self._tree_version: Optional[int] = None
        self._subtrees: Dict[int, Tuple[FrozenSet[int], int]] = {}

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def initialize(self, world: World) -> None:
        config = world.config
        self._planner = Bug2Planner(world.field, Handedness.RIGHT)
        self._forces = VirtualForceModel(
            repulsion_distance=2.0 * config.sensing_range,
            obstacle_distance=config.sensing_range,
        )
        self._lazy = LazyMovementController(world.routing)
        self._avoidance = OscillationAvoidance(
            max_step=config.max_step,
            delta=self._oscillation_delta,
            mode=self._oscillation_mode,
        )
        # Drop the subtree cache of any previous world: a fresh tree
        # restarts its version counter, so stale entries could otherwise
        # collide with the new world's version values.
        self._tree_version = None
        self._subtrees = {}
        flood_tree(world)
        for sensor in world.sensors:
            if sensor.state is SensorState.DISCONNECTED:
                sensor.state = SensorState.MOVING_TO_CONNECT
                path = self._planner.plan(sensor.position, world.base_station)
                sensor.motion.follow(path)

    # ------------------------------------------------------------------
    # Per-period execution
    # ------------------------------------------------------------------
    def step(self, world: World) -> None:
        assert self._planner is not None and self._forces is not None
        assert self._lazy is not None and self._avoidance is not None
        # Protocol decisions read the table through the network model (a
        # live pass-through by default, aged under staleness): one read
        # per period, whose snapshot also gives the forces their pairs.
        # Physics — coverage, connectivity, the step ladder's link
        # positions — stays live.
        with world.telemetry.span("cpvf.table"):
            neighbors = world.protocol_neighbors()
            table = neighbors.table()
        # Each sensor's state read once: the walkers the attach sweeps
        # leave unattached are the ones that walk.
        unconnected = walkers(world)
        attach_reachable(
            world, unconnected, table, world.config.communication_range, self._lazy
        )
        self._advance_disconnected_sensors(world, unconnected, table)
        self._apply_virtual_forces(world, table, neighbors)

    # -- Stage 1: establishing connectivity ----------------------------
    def _advance_disconnected_sensors(
        self, world: World, unconnected: List[Sensor], table: Dict[int, List[int]]
    ) -> None:
        """The ``unconnected`` sensors walk toward the base station (lazily)."""
        assert self._lazy is not None and self._planner is not None
        sensors = world.sensors
        for sensor in unconnected:
            neighbors = [
                sensors[n]
                for n in table.get(sensor.sensor_id, [])
                if sensors[n].state not in CONNECTED_STATES
            ]
            planner = self._planner
            self._lazy.advance_toward_connection(
                sensor,
                world.base_station,
                neighbors,
                lambda s=sensor: planner.plan(s.position, world.base_station),
            )

    # -- Stage 2: virtual-force coverage maximisation -------------------
    def _force_directions(
        self,
        world: World,
        snapshot: _PeriodSnapshot,
        neighbors: NeighborSnapshot,
    ) -> Dict[int, Tuple[float, float]]:
        """Resultant force directions ``(x, y)`` for all connected
        sensors at once: a unit vector, or ``(0.0, 0.0)`` at equilibrium.

        Pairwise sensor repulsion is evaluated in one numpy batch over the
        period's neighbour pairs whose row is connected (the table's rows
        of the connected sensors, in id order); the (cheap, per-sensor)
        obstacle and boundary terms are added scalar-wise: sensor terms
        first, then obstacles and walls.
        """
        assert self._forces is not None
        xs, ys = snapshot.xs, snapshot.ys
        connected = snapshot.connected_ids
        rows, cols = neighbors.pair_ids()
        is_connected = np.zeros(len(xs), dtype=bool)
        is_connected[connected] = True
        keep = is_connected[rows]
        rows, cols = rows[keep], cols[keep]
        sum_x, sum_y = self._forces.sensor_force_sums(
            np.array(xs, dtype=float), np.array(ys, dtype=float), rows, cols
        )
        sum_x = sum_x.tolist()
        sum_y = sum_y.tolist()
        directions: Dict[int, Tuple[float, float]] = {}
        field = world.field
        has_obstacles = bool(field.obstacles)
        width, height = field.width, field.height
        boundary_force_xy = self._forces.boundary_force_xy
        force_from_obstacles = self._forces.force_from_obstacles
        for sid in connected:
            total_x, total_y = sum_x[sid], sum_y[sid]
            if has_obstacles:
                obstacle_x, obstacle_y = force_from_obstacles(
                    xs[sid], ys[sid], field
                )
                total_x += obstacle_x
                total_y += obstacle_y
            else:
                # force_from_obstacles with no obstacles reduces to the
                # four wall terms.
                wall_x, wall_y = boundary_force_xy(xs[sid], ys[sid], width, height)
                total_x += wall_x
                total_y += wall_y
            norm = math.hypot(total_x, total_y)
            if norm <= EPS:
                directions[sid] = (0.0, 0.0)
            else:
                directions[sid] = (total_x / norm, total_y / norm)
        return directions

    def _apply_virtual_forces(
        self,
        world: World,
        table: Dict[int, List[int]],
        neighbors: NeighborSnapshot,
    ) -> None:
        """One force-directed move per connected sensor.

        Per sensor: the step ladder against its live tree links, a parent
        change when the ladder is blocked, the step clipped to free
        space, then oscillation avoidance; a move that survives is
        committed by ``MotionModel.move_to_xy`` (charged as ``move_to``
        charges it) and written back to the snapshot.
        """
        assert self._avoidance is not None
        snapshot = _PeriodSnapshot(world)
        if not snapshot.connected_ids:
            return
        tel = world.telemetry
        with tel.span("cpvf.forces"):
            directions = self._force_directions(world, snapshot, neighbors)
        config = world.config
        max_step = config.max_step
        rc = config.communication_range
        allow_parent_change = self._allow_parent_change
        # The rule never cancels with a threshold of zero.
        should_cancel = (
            self._avoidance.should_cancel
            if self._avoidance.threshold() > 0.0
            else None
        )
        sensors = world.sensors
        field = world.field
        base = world.base_station
        tree_parent = world.tree.parent
        tree_children = world.tree.children
        xs, ys = snapshot.xs, snapshot.ys
        # Each required link costs one state-exchange message before the
        # step-size decision (Section 4.2); charged once for the period.
        link_messages = 0
        with tel.span("cpvf.moves"):
            for sid in snapshot.connected_ids:
                sensor = sensors[sid]
                dir_x, dir_y = directions[sid]
                if dir_x == 0.0 and dir_y == 0.0:
                    sensor.previous_position = sensor.motion.position
                    continue
                parent = tree_parent.get(sid)
                links = [(xs[child], ys[child]) for child in tree_children.get(sid, ())]
                if parent == BASE_STATION_ID:
                    links.insert(0, (base.x, base.y))
                elif parent is not None:
                    links.insert(0, (xs[parent], ys[parent]))
                link_messages += len(links)
                px, py = xs[sid], ys[sid]
                step = max_valid_step_points(
                    px, py, dir_x, dir_y, max_step, links, rc
                )
                if step <= 0.0 and allow_parent_change:
                    if tel.enabled:
                        tel.count("cpvf.repair_attempts", 1)
                    with tel.span("cpvf.repair"):
                        step = self._try_parent_change(
                            world, sensor, dir_x, dir_y, table, snapshot
                        )
                if step <= 0.0:
                    sensor.previous_position = sensor.motion.position
                    continue
                # Respect obstacles and the field boundary.
                step = field.max_free_travel(px, py, dir_x, dir_y, step)
                # `position + direction.normalized() * step` on floats.
                dir_norm = math.hypot(dir_x, dir_y)
                end_x = px + (dir_x / dir_norm) * step
                end_y = py + (dir_y / dir_norm) * step
                motion = sensor.motion
                position = motion.position
                previous = sensor.previous_position
                sensor.previous_position = position
                if should_cancel is not None and should_cancel(
                    step, position, Vec2(end_x, end_y), previous
                ):
                    continue
                motion.move_to_xy(end_x, end_y)
                xs[sid] = end_x
                ys[sid] = end_y
        if link_messages:
            world.routing.record_one_hop(MessageType.NEIGHBOR_STATE, link_messages)

    def _subtree(self, world: World, root: int) -> Tuple[FrozenSet[int], int]:
        """``(subtree ids, lock depth)`` of the subtree rooted at ``root``.

        The ids include ``root``; the depth is the BFS depth (0 for a
        leaf).  The LockTree wave serializes along the deepest
        root-to-leaf path: the grant cannot be issued until the farthest
        descendant has acknowledged, so the handshake's loss-critical
        transmission count grows with this depth, not with the subtree
        size.  Both come from one BFS, cached for the tree at
        ``_tree_version``: a blocked sensor retries its parent change
        period after period, and CPVF's own parent changes keep the
        entries they do not alter (:meth:`_reparent`).
        """
        tree = world.tree
        if self._tree_version != tree.version:
            self._subtrees = {}
            self._tree_version = tree.version
        cached = self._subtrees.get(root)
        if cached is None:
            if world.telemetry.enabled:
                world.telemetry.count("cpvf.subtree_walks", 1)
            children = tree.children
            seen = {root}
            frontier = [root]
            depth = 0
            while frontier:
                next_frontier: List[int] = []
                for node in frontier:
                    for child in children.get(node, ()):
                        if child not in seen:
                            seen.add(child)
                            next_frontier.append(child)
                if next_frontier:
                    depth += 1
                frontier = next_frontier
            cached = (frozenset(seen), depth)
            self._subtrees[root] = cached
        return cached

    def _acquire_subtree_lock(
        self, world: World, sensor_id: int, subtree_size: int, depth: int
    ) -> bool:
        """Run the LockTree/UnLockTree handshake through the network model.

        A network that drops nothing charges the handshake once and
        grants immediately (the seed behaviour).  Under loss the critical
        down-and-back wave (2 * depth + 2 transmissions) retries with
        exponential backoff up to the delivery budget (``depth`` is the
        subtree's lock depth, see :meth:`_subtree`).  A timed-out
        handshake aborts to the safe state — the caller keeps the
        current parent and holds position, preserving the paper's
        serialization requirement.
        """
        delivered, attempts = world.network.exchange(
            world, ("cpvf.lock", sensor_id), 2 * depth + 2
        )
        # Every attempt re-runs the whole lock/unlock wave on the air.
        world.routing.record_subtree_lock(
            world.tree, sensor_id, subtree_size=subtree_size, attempts=attempts
        )
        if not delivered:
            world.telemetry.count("cpvf.lock_aborts", 1)
        return delivered

    def _try_parent_change(
        self,
        world: World,
        sensor: Sensor,
        dir_x: float,
        dir_y: float,
        table: Dict[int, List[int]],
        snapshot: Optional[_PeriodSnapshot] = None,
    ) -> float:
        """Attempt to adopt a new parent that unblocks the planned move
        along ``(dir_x, dir_y)``.

        The sensor must lock its subtree first (accounted as LockTree /
        UnLockTree transmissions); candidate parents are connected
        neighbours outside the sensor's own subtree, read from the
        protocol ``table``.  That table may be stale, so the live range
        filter runs after the lock.  ``snapshot`` is the period's (live)
        snapshot; a caller outside the move loop leaves it out and one is
        taken from ``world``.  Returns the step size achievable under the
        best new parent (0 when none helps).
        """
        if snapshot is None:
            snapshot = _PeriodSnapshot(world)
        sid = sensor.sensor_id
        subtree, depth = self._subtree(world, sid)
        xs, ys = snapshot.xs, snapshot.ys
        px, py = xs[sid], ys[sid]
        base = world.base_station
        rc = world.config.communication_range
        candidates: List[int] = []
        if math.hypot(px - base.x, py - base.y) <= rc:
            candidates.append(BASE_STATION_ID)
        connected = snapshot.connected
        for nb_id in table.get(sid, ()):
            if nb_id in connected and nb_id not in subtree:
                candidates.append(nb_id)
        if not candidates:
            return 0.0
        if not self._acquire_subtree_lock(world, sid, len(subtree), depth):
            return 0.0
        limit = rc + LINK_EPS
        live = []
        for candidate in candidates:
            if candidate == BASE_STATION_ID:
                cx, cy = base.x, base.y
            else:
                cx, cy = xs[candidate], ys[candidate]
            if math.hypot(px - cx, py - cy) <= limit:
                live.append((candidate, cx, cy))
        return self._adopt_parent(world, sensor, dir_x, dir_y, live, snapshot)

    def _adopt_parent(
        self,
        world: World,
        sensor: Sensor,
        dir_x: float,
        dir_y: float,
        candidates: Sequence[Tuple[int, float, float]],
        snapshot: _PeriodSnapshot,
    ) -> float:
        """The parent-change scan, run under the lock.

        ``candidates`` are the ``(id, x, y)`` of the connected nodes
        outside the sensor's subtree that are in range now, base station
        first.  Equivalent to running the step ladder per candidate and
        keeping the first candidate attaining the best step (the seed
        scan, kept in ``tests/oracles``), but scanned fraction-outer: the
        child constraints are checked once per candidate step size and
        the scan stops at the first (largest) step some candidate admits.
        Reparents and returns that step, or returns 0 when none helps.
        """
        config = world.config
        max_step = config.max_step
        norm = math.hypot(dir_x, dir_y)
        if not candidates or norm <= EPS or max_step <= 0.0:
            return 0.0
        unit_x, unit_y = dir_x / norm, dir_y / norm
        sid = sensor.sensor_id
        xs, ys = snapshot.xs, snapshot.ys
        px, py = xs[sid], ys[sid]
        limit = config.communication_range + LINK_EPS
        children_xy = [(xs[c], ys[c]) for c in world.tree.children.get(sid, ())]
        # A required link that is already out of range invalidates every
        # candidate step, whatever the new parent.
        for cx, cy in children_xy:
            if math.hypot(px - cx, py - cy) > limit:
                return 0.0
        for fraction in STEP_FRACTIONS:
            step = fraction * max_step
            if step <= 0.0:
                return 0.0
            qx, qy = px + unit_x * step, py + unit_y * step
            for cx, cy in children_xy:
                if math.hypot(qx - cx, qy - cy) > limit:
                    break
            else:
                for candidate, cx, cy in candidates:
                    if math.hypot(qx - cx, qy - cy) <= limit:
                        self._reparent(world, sid, candidate)
                        world.telemetry.count("cpvf.parent_changes", 1)
                        return step
        return 0.0

    def _reparent(self, world: World, sensor_id: int, new_parent: int) -> None:
        """Move ``sensor_id`` under ``new_parent``, keeping the subtree
        cache current.

        A subtree changes exactly when its root is an ancestor (or
        itself) of the old or the new parent, that is when its member set
        holds one of them; the two parents' own ancestor chains lie
        outside the moved subtree, so they are the same before and after
        the move.  Only those entries are dropped.  A cache that was
        already stale stays stale and is dropped whole on its next read.
        """
        tree = world.tree
        current = self._tree_version == tree.version
        old_parent = tree.parent.get(sensor_id)
        if not tree.reparent(sensor_id, new_parent) or not current:
            return
        self._subtrees = {
            root: entry
            for root, entry in self._subtrees.items()
            if old_parent not in entry[0] and new_parent not in entry[0]
        }
        self._tree_version = tree.version

    # ------------------------------------------------------------------
    # Lifecycle churn
    # ------------------------------------------------------------------
    def on_world_changed(self, world: World, change) -> None:
        """React to fault-injection events between periods.

        Failures: any lazily-waiting state tied to the dead sensor is
        dropped.  Sensors the tree repair could not re-attach (and freshly
        injected sensors) are re-dispatched toward the base station; their
        BUG2 paths are planned lazily on the next period, so a sensor that
        finds a connected neighbour immediately never walks.  Obstacle
        changes invalidate every in-flight path — BUG2 trajectories were
        planned against the old field and may now cut through (or detour
        around) geometry that no longer exists.
        """
        if self._planner is None or self._lazy is None:
            return
        if change.obstacles_changed:
            for sensor in world.sensors:
                if sensor.is_alive() and sensor.motion.has_path:
                    sensor.motion.stop()
        for sid in change.failed_ids:
            self._lazy.stop_waiting(world.sensor(sid))
        for sid in chain(change.disconnected_ids, change.added_ids):
            sensor = world.sensor(sid)
            if not sensor.is_alive() or sensor.is_connected():
                continue
            sensor.state = SensorState.MOVING_TO_CONNECT
            self._lazy.stop_waiting(sensor)
            sensor.motion.stop()

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def has_converged(self, world: World) -> bool:
        """CPVF does not converge reliably (Section 4.4); run the horizon."""
        return False
