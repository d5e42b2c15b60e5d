"""The FLOOR deployment scheme (Section 5).

FLOOR divides the field into floors of height ``2 * rs`` and grows coverage
like a vine over a framework of floor lines and field/obstacle boundaries.
The scheme runs in three phases:

1. **Achieving connectivity** (Section 5.2, Algorithm 1) — every
   disconnected sensor walks, via BUG2 with the right-hand rule and the
   lazy-movement strategy, through two intermediate destinations (the
   projection onto its nearest floor line, then the projection onto the
   y axis) toward the base station, stopping as soon as it comes within
   ``min(rc, 2*rs)`` of a connected node, which becomes its tree parent.
2. **Identifying movable sensors** (Section 5.3) — serialised over the
   tree, each sensor checks whether its children could be re-parented
   without creating loops and whether the area it covers exclusively is
   below a threshold; if both hold it is *movable*, otherwise *fixed*.
3. **Expanding coverage** (Section 5.5) — fixed sensors discover expansion
   points (FLG / BLG / IFLG), advertise them with TTL-bounded random-walk
   invitations, and movable sensors relocate to accepted expansion points
   (BUG2 with the left-hand rule), becoming fixed on arrival and searching
   for further expansion opportunities themselves.

Reproduction note: when an invitation is accepted the inviter installs a
*virtual fixed node* at the expansion point (as in Algorithm 2).  In this
implementation the virtual node also participates in expansion-point
discovery while the invited sensor is still in transit; without this, the
coverage frontier could only advance at the pace of one sensor-relocation
per hop, which does not fit the paper's 750-second horizon.  Coverage is
always measured from *physical* sensor positions, so the shortcut only
affects how early invitations for the next hop can be issued.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

from ..geometry import Vec2
from ..mobility import Bug2Path, Bug2Planner, Handedness
from ..network import BASE_STATION_ID, LINK_EPS, MessageType
from ..sensors import CONNECTED_STATES, Sensor, SensorState
from ..sim import DeploymentScheme, World
from .expansion import ExpansionKind, ExpansionPlanner, ExpansionPoint
from .floors import FloorGeometry
from .connect import attach_reachable, flood_tree, walkers
from .headers import FloorRegistry
from .invitations import InvitationProtocol
from .lazy import LazyMovementController

__all__ = ["FloorScheme"]

#: Number of sample points used to estimate a sensor's exclusive coverage.
_EXCLUSIVE_COVERAGE_SAMPLES = 24

#: Virtual-node ids are offset so they never collide with sensor ids.
_VIRTUAL_ID_OFFSET = 1_000_000

#: A connected sensor is declared movable only when the fraction of its
#: sensing disk it covers exclusively is below this threshold.
_MOVABLE_EXCLUSIVE_THRESHOLD = 0.4

#: Default invitation random-walk TTL as a fraction of the sensor count.
_DEFAULT_TTL_FRACTION = 0.2

#: Phase 2 starts when all sensors are connected or after this fraction
#: of the simulation horizon, whichever comes first (the paper's "maximum
#: arrival time" estimate).
_PHASE2_DEADLINE_FRACTION = 0.25

#: Telemetry counters of the expansion planner's totals, in the order of
#: :meth:`FloorScheme._planner_counts` (the part recomputations indexed
#: by :class:`ExpansionKind`, then the parts an obstacle change reached,
#: then the memo entries the change routing examined).
_PLANNER_COUNTERS = (
    "floor.expansion_reused",
    "floor.expansion_recomputed",
    "floor.coverage_queries",
    "floor.iflg_neighbors_reused",
    "floor.iflg_neighbors_computed",
    *(f"floor.expansion_recomputed.{kind.name.lower()}" for kind in ExpansionKind),
    "floor.expansion_recomputed.field",
    "floor.expansion_checked",
)


@lru_cache(maxsize=None)
def _disk_samples(rs: float) -> Tuple[Tuple[float, float], ...]:
    """Offsets of the deterministic low-discrepancy samples of a sensing
    disk of radius ``rs``: a spiral inside the disk."""
    samples = []
    for k in range(_EXCLUSIVE_COVERAGE_SAMPLES):
        fraction = (k + 0.5) / _EXCLUSIVE_COVERAGE_SAMPLES
        radius = rs * math.sqrt(fraction)
        angle = 2.0 * math.pi * (k * 0.61803398875 % 1.0)
        samples.append((radius * math.cos(angle), radius * math.sin(angle)))
    return tuple(samples)


class FloorScheme(DeploymentScheme):
    """Floor-based deployment."""

    name = "FLOOR"

    def __init__(self, invitation_ttl: Optional[int] = None):
        """Create the scheme.

        ``invitation_ttl`` is the TTL of the invitation random walk; it
        defaults to the paper's ``0.2 * N``.
        """
        self._ttl = invitation_ttl

        self._floors: Optional[FloorGeometry] = None
        self._registry: Optional[FloorRegistry] = None
        self._planner_connect: Optional[Bug2Planner] = None
        self._planner_disperse: Optional[Bug2Planner] = None
        self._lazy: Optional[LazyMovementController] = None
        self._invitations: Optional[InvitationProtocol] = None
        self._expansion: Optional[ExpansionPlanner] = None

        self._phase: int = 1
        #: Fixed / virtual node ids still scanning for expansion points.
        self._active_searchers: Set[int] = set()
        #: Positions of virtual searcher nodes keyed by their registry id.
        self._virtual_positions: Dict[int, Vec2] = {}
        #: Relocating sensors: sensor id -> (target EP, inviter id).
        self._relocations: Dict[int, ExpansionPoint] = {}
        self._virtual_counter: int = 0

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def initialize(self, world: World) -> None:
        config = world.config
        self._floors = FloorGeometry.for_field(world.field, config.sensing_range)
        self._registry = FloorRegistry(self._floors)
        self._planner_connect = Bug2Planner(world.field, Handedness.RIGHT)
        self._planner_disperse = Bug2Planner(world.field, Handedness.LEFT)
        self._lazy = LazyMovementController(world.routing)
        ttl = (
            self._ttl
            if self._ttl is not None
            else round(_DEFAULT_TTL_FRACTION * config.sensor_count)
        )
        self._invitations = InvitationProtocol(
            routing=world.routing, ttl=max(1, int(ttl)), rng=world.rng
        )
        self._expansion = ExpansionPlanner(
            field=world.field,
            floors=self._floors,
            registry=self._registry,
            sensing_range=config.sensing_range,
            expansion_radius=min(
                config.communication_range, config.sensing_range
            ),
        )
        self._phase = 1
        self._active_searchers.clear()
        self._virtual_positions.clear()
        self._relocations.clear()

        flood_tree(world)
        for sensor in world.sensors:
            if sensor.state is SensorState.DISCONNECTED:
                sensor.state = SensorState.MOVING_TO_CONNECT
                sensor.motion.follow(self._plan_connect_trajectory(world, sensor))

    def _plan_connect_trajectory(self, world: World, sensor: Sensor) -> Bug2Path:
        """Algorithm 1: the three-leg BUG2 trajectory toward the base station."""
        assert self._planner_connect is not None and self._floors is not None
        start = sensor.position
        floor_y = self._floors.nearest_floor_line(start.y)
        leg_targets = [
            Vec2(start.x, floor_y),
            Vec2(0.0, floor_y),
            world.base_station,
        ]
        waypoints: List[Vec2] = [start]
        reached = True
        current = start
        encounters = 0
        for target in leg_targets:
            leg = self._planner_connect.plan(current, target)
            encounters += leg.encounters
            # Skip the duplicated starting waypoint of each leg.
            waypoints.extend(leg.waypoints[1:])
            current = leg.waypoints[-1]
            reached = leg.reached_target
        return Bug2Path(waypoints, reached, encounters)

    # ------------------------------------------------------------------
    # Per-period execution
    # ------------------------------------------------------------------
    def step(self, world: World) -> None:
        assert self._lazy is not None
        # Protocol decisions read neighbours through the network model
        # (live pass-through by default, aged under staleness); coverage
        # and connectivity metrics stay on live state.  One read per
        # step: the connection walkers' rows, and on the period phase 2
        # runs the whole table of the same snapshot.
        neighbors = world.protocol_neighbors()
        # Each sensor's state read once: the walkers the attach sweeps
        # leave unattached are the ones that walk.
        unconnected = walkers(world)
        if unconnected:
            table = neighbors.rows([s.sensor_id for s in unconnected])
            config = world.config
            attach_distance = min(
                config.communication_range, 2.0 * config.sensing_range
            )
            for sensor_id in attach_reachable(
                world, unconnected, table, attach_distance, self._lazy
            ):
                # Arrival report up the tree and the ancestor-list response
                # back down (Section 5.3).
                world.routing.record_to_base_station(
                    world.tree, sensor_id, MessageType.ARRIVAL_REPORT
                )
                world.routing.record_from_base_station(
                    world.tree, sensor_id, MessageType.ANCESTOR_RESPONSE
                )
            self._advance_disconnected_sensors(world, unconnected, table)

        if self._phase == 1 and self._phase2_should_start(world):
            self._identify_movable_sensors(world, neighbors.table())
            self._phase = 3

        if self._phase == 3:
            # Sensors that only managed to connect after phase 2 ran are
            # classified on arrival: they volunteer as movable sensors.
            connected, movable = SensorState.CONNECTED, SensorState.MOVABLE
            for sensor in world.sensors:
                if sensor.state is connected:
                    sensor.state = movable
            tel = world.telemetry
            with tel.span("floor.relocations"):
                self._advance_relocations(world)
            with tel.span("floor.expansion_round"):
                self._run_expansion_round(world)
            if tel.enabled:
                tel.gauge(
                    "floor.relocations_in_flight", len(self._relocations)
                )

    # -- Phase 1: achieving connectivity --------------------------------
    def _advance_disconnected_sensors(
        self, world: World, unconnected: List[Sensor], table: Dict[int, List[int]]
    ) -> None:
        assert self._lazy is not None
        sensors = world.sensors
        for sensor in unconnected:
            neighbors = [
                sensors[n]
                for n in table.get(sensor.sensor_id, [])
                if sensors[n].state not in CONNECTED_STATES
            ]
            self._lazy.advance_toward_connection(
                sensor,
                world.base_station,
                neighbors,
                lambda s=sensor: self._plan_connect_trajectory(world, s),
            )
            self._exit_obstacle(world, sensor)

    @staticmethod
    def _exit_obstacle(world: World, sensor: Sensor) -> None:
        """Obstacle-exit correction after one transit step.

        A BUG2 polyline keeps only ~0.5 m of clearance when rounding
        obstacle corners, so the arc-length interpolation between two
        pushed-out waypoints can dip into an obstacle's interior.  A sensor
        must never be observed (or end a run) inside an obstacle, so every
        transit step — connection walks and relocations alike — exits back
        into free space.
        """
        position = sensor.position
        if not world.field.is_free_xy(position.x, position.y):
            sensor.motion.relocate(
                world.field.nearest_free(position), "obstacle_exit"
            )

    # -- Phase 2: identifying movable sensors ---------------------------
    def _phase2_should_start(self, world: World) -> bool:
        all_connected = all(
            s.is_connected() for s in world.sensors if s.is_alive()
        )
        deadline = int(_PHASE2_DEADLINE_FRACTION * world.config.max_periods)
        return all_connected or world.period_index >= deadline

    def _identify_movable_sensors(
        self, world: World, table: Dict[int, List[int]]
    ) -> None:
        """Classify every connected sensor as fixed or movable (Section 5.3)."""
        assert self._registry is not None
        # Serialise in breadth-first tree order, as the depth-first
        # coordination message of the paper would.
        order: List[int] = []
        frontier = sorted(world.tree.children_of(BASE_STATION_ID))
        seen = set(frontier)
        while frontier:
            current = frontier.pop(0)
            order.append(current)
            for child in sorted(world.tree.children_of(current)):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)

        for sid in order:
            sensor = world.sensor(sid)
            if not sensor.is_connected():
                continue
            movable = self._children_can_be_rehomed(
                world, sensor, table
            ) and self._exclusive_coverage_is_low(world, sensor, table)
            if movable:
                sensor.state = SensorState.MOVABLE
            else:
                sensor.state = SensorState.FIXED
                self._registry.register(sid, sensor.position)
                self._active_searchers.add(sid)

        # Sensors that never connected stay out of phase 3 until they do;
        # when they connect later they are treated as movable volunteers.
        for sensor in world.sensors:
            if sensor.state is SensorState.CONNECTED:
                sensor.state = SensorState.MOVABLE

        # Expansion needs at least one anchored sensor to search for
        # expansion points.  In a dense clustered start it can happen that
        # every sensor's exclusive coverage is tiny and everyone volunteers
        # as movable; in that case the sensor closest to the base station
        # (the tree root's first hop) is kept fixed as the seed.
        if not self._active_searchers:
            candidates = [s for s in world.sensors if s.is_connected()]
            if candidates:
                seed = min(
                    candidates,
                    key=lambda s: s.position.distance_to(world.base_station),
                )
                seed.state = SensorState.FIXED
                self._registry.register(seed.sensor_id, seed.position)
                self._active_searchers.add(seed.sensor_id)

    def _children_can_be_rehomed(
        self, world: World, sensor: Sensor, table: Dict[int, List[int]]
    ) -> bool:
        """Whether every child could attach to another connected neighbour."""
        children = world.tree.children_of(sensor.sensor_id)
        if not children:
            return True
        for child in children:
            child_sensor = world.sensor(child)
            subtree = world.tree.subtree_of(child)
            found = False
            base_dist = child_sensor.position.distance_to(world.base_station)
            if base_dist <= world.config.communication_range:
                found = True
            if not found:
                for candidate in table.get(child, []):
                    if candidate == sensor.sensor_id or candidate in subtree:
                        continue
                    if world.sensor(candidate).is_connected():
                        found = True
                        break
            if not found:
                return False
        return True

    def _exclusive_coverage_is_low(
        self, world: World, sensor: Sensor, table: Dict[int, List[int]]
    ) -> bool:
        """Estimate the exclusively covered fraction of the sensing disk."""
        # The closed sensing disk (radius rs + 1e-9) of each connected
        # neighbour, on floats.
        disks = [
            (nb.position.x, nb.position.y, nb.sensing_range + 1e-9)
            for nb in map(world.sensor, table.get(sensor.sensor_id, []))
            if nb.is_connected()
        ]
        px, py = sensor.position.x, sensor.position.y
        is_free_xy = world.field.is_free_xy
        hypot = math.hypot
        exclusive = 0
        samples = 0
        for dx, dy in _disk_samples(sensor.sensing_range):
            x = px + dx
            y = py + dy
            if not is_free_xy(x, y):
                continue
            samples += 1
            for nx, ny, reach in disks:
                if hypot(nx - x, ny - y) <= reach:
                    break
            else:
                exclusive += 1
        if samples == 0:
            return True
        return (exclusive / samples) < _MOVABLE_EXCLUSIVE_THRESHOLD

    # -- Phase 3: expanding coverage ------------------------------------
    def _advance_relocations(self, world: World) -> None:
        assert self._registry is not None
        field = world.field
        is_free_xy = field.is_free_xy
        sensors = world.sensors
        hypot = math.hypot
        arrived: List[int] = []
        # One step per relocating sensor: the obstacle-exit correction
        # (:meth:`_exit_obstacle`) and the arrival test read the point
        # reached on floats.
        for sensor_id, ep in self._relocations.items():
            motion = sensors[sensor_id].motion
            step = motion.advance_along_path()
            if step is None:
                position = motion.position
                x, y = position.x, position.y
            else:
                x, y, _ = step
            if not is_free_xy(x, y):
                position = field.nearest_free(motion.position)
                motion.relocate(position, "relocation_step")
                x, y = position.x, position.y
            target = ep.position
            if motion.path is None or hypot(x - target.x, y - target.y) <= 1e-6:
                arrived.append(sensor_id)
        for sensor_id in arrived:
            ep = self._relocations.pop(sensor_id)
            sensor = world.sensor(sensor_id)
            # Obstacle-exit correction on arrival: the expansion point was
            # checked to be free when discovered, but nearest_free guards
            # against a stale EP (e.g. clamped onto an obstacle boundary).
            sensor.motion.relocate(world.field.nearest_free(ep.position), "arrival")
            sensor.state = SensorState.FIXED
            self._registry.promote_virtual(sensor_id, sensor.position)
            # Re-attach to the tree under the inviter (or the base station
            # when the inviter was a virtual node that has no tree presence).
            parent = ep.owner_id if ep.owner_id in world.tree else BASE_STATION_ID
            if parent != BASE_STATION_ID and parent >= _VIRTUAL_ID_OFFSET:
                parent = BASE_STATION_ID
            world.attach_to_tree(sensor_id, parent)
            self._active_searchers.add(sensor_id)
            # Remove the corresponding virtual searcher, if any.
            self._remove_virtual_for(ep, sensor)

    def _remove_virtual_for(
        self, ep: ExpansionPoint, arrived: Optional[Sensor] = None
    ) -> None:
        """Drop the virtual searcher standing in for an arrived sensor.

        The ``arrived`` sensor takes over the planner's answer of a
        virtual searcher standing exactly where it stands: it searches
        from the same point with the same records around it.
        """
        assert self._registry is not None and self._expansion is not None
        to_remove = [
            vid
            for vid, pos in self._virtual_positions.items()
            if pos.distance_to(ep.position) <= 1e-6
        ]
        for vid in to_remove:
            position = self._virtual_positions.pop(vid)
            if arrived is not None and position == arrived.position:
                self._active_searchers.discard(vid)
                self._expansion.hand_over(vid, arrived.sensor_id)
                arrived = None
            else:
                self._drop_searcher(vid)
            self._registry.unregister(vid)

    def _drop_searcher(self, searcher_id: int) -> None:
        """Take a searcher out of the active set and its last answer out
        of the planner's memo (it is never asked again from where it is:
        a sensor only searches again after relocating, and virtual ids
        are not reused)."""
        self._active_searchers.discard(searcher_id)
        assert self._expansion is not None
        self._expansion.forget(searcher_id)

    def _searcher_positions(
        self, world: World, ids: List[int]
    ) -> List[Optional[Vec2]]:
        """Where each searcher stands, ``None`` for a sensor no longer
        FIXED."""
        sensors = world.sensors
        virtual_positions = self._virtual_positions
        fixed = SensorState.FIXED
        return [
            virtual_positions.get(searcher_id)
            if searcher_id >= _VIRTUAL_ID_OFFSET
            else (
                sensor.position
                if (sensor := sensors[searcher_id]).state is fixed
                else None
            )
            for searcher_id in ids
        ]

    def _planner_counts(self) -> List[int]:
        """The expansion planner's totals behind :data:`_PLANNER_COUNTERS`."""
        planner = self._expansion
        assert planner is not None
        return [
            planner.reused,
            planner.recomputed,
            planner.coverage_queries,
            planner.iflg_neighbors_reused,
            planner.iflg_neighbors_computed,
            *planner.recomputed_parts,
            planner.recomputed_field,
            planner.checked,
        ]

    def _collect_expansion_points(self, world: World) -> List[ExpansionPoint]:
        """Step 1 of a round: fixed (and virtual) searchers look for EPs,
        and the round advertises those of the highest-priority kind found.

        Expansion priorities (Section 5.5.1): FLG gives the largest
        coverage gain per relocation, BLG comes second (it is what
        introduces sensors to new floors along boundaries) and IFLG infill
        comes last.  Advertising only the highest-priority kind available
        in a round keeps movable sensors from being spent on boundary or
        infill points while floor-line frontiers are still open.

        The planner serves the round (:meth:`ExpansionPlanner.advertise`):
        only new, moved or reached searchers are searched again.
        Searchers that find none (or are no longer ``FIXED``) leave the
        active set.
        """
        expansion = self._expansion
        assert expansion is not None
        tel = world.telemetry
        before = self._planner_counts() if tel.enabled else None
        ids = sorted(self._active_searchers)
        expansion_points, floors_asked, exhausted, searched = expansion.advertise(
            ids, self._searcher_positions(world, ids)
        )
        # "If a sensor finds no expansion points on its expansion circle,
        # then it stops the checking process."
        for searcher_id in exhausted:
            self._drop_searcher(searcher_id)
        # Coverage-status queries to the relevant floor headers: one query
        # and one response per floor asked, routed over the tree (charged
        # for every searcher with points, whether or not its answer was
        # reused).
        if floors_asked:
            world.routing.record_one_hop(MessageType.COVERAGE_QUERY, floors_asked)
            world.routing.record_one_hop(MessageType.COVERAGE_RESPONSE, floors_asked)
        if before is not None:
            tel.count("floor.rounds_searched" if searched else "floor.rounds_reused", 1)
            for name, done, was in zip(
                _PLANNER_COUNTERS, self._planner_counts(), before
            ):
                tel.count(name, done - was)
        return expansion_points

    def _run_expansion_round(self, world: World) -> None:
        assert self._invitations is not None

        # 1. Fixed (and virtual) searchers look for expansion points.
        tel = world.telemetry
        with tel.span("floor.expansion_points"):
            expansion_points = self._collect_expansion_points(world)
        if not expansion_points:
            return

        # 2. One invitation round matches EPs with movable sensors.
        with tel.span("floor.invitations"):
            # One state read a sensor for both the movable sensors and the
            # connected count.
            movable = []
            connected_count = 0
            movable_state = SensorState.MOVABLE
            relocations = self._relocations
            for sensor in world.sensors:
                state = sensor.state
                if state in CONNECTED_STATES:
                    connected_count += 1
                    if (
                        state is movable_state
                        and sensor.sensor_id not in relocations
                    ):
                        movable.append(sensor)
            if tel.enabled:
                # One invitation walk starts per advertised expansion point.
                tel.count("floor.invitations_issued", len(expansion_points))
            assignments = self._invitations.run_round(
                expansion_points, movable, connected_count, world.tree,
                world=world,
            )
        tel.count("floor.relocations_started", len(assignments))

        # 3. Accepted movable sensors start relocating.
        with tel.span("floor.relocation_starts"):
            for assignment in assignments:
                self._start_relocation(
                    world, assignment.movable_id, assignment.expansion_point
                )

    def _start_relocation(
        self, world: World, movable_id: int, ep: ExpansionPoint
    ) -> None:
        assert self._planner_disperse is not None and self._registry is not None
        sensor = world.sensor(movable_id)
        if not self._rehome_children(world, sensor):
            world.telemetry.count("floor.rehome_failures", 1)
            return
        # Leave the tree while in transit; the subtree has been re-homed.
        world.tree.detach(movable_id, keep_subtree=True)
        sensor.state = SensorState.RELOCATING
        path = self._planner_disperse.plan(sensor.position, ep.position)
        sensor.motion.follow(path)
        self._relocations[movable_id] = ep

        # Install the virtual place-holding fixed node at the EP.
        self._virtual_counter += 1
        virtual_id = _VIRTUAL_ID_OFFSET + self._virtual_counter
        self._registry.register(virtual_id, ep.position, virtual=True)
        # It searches for expansion points while the sensor is in transit
        # (see the module docstring).
        self._virtual_positions[virtual_id] = ep.position
        self._active_searchers.add(virtual_id)

    def _rehome_children(self, world: World, sensor: Sensor) -> bool:
        """Give every child of a departing movable sensor a new parent.

        Each child takes the first that accepts it of the base station
        (when within rc) and its connected tree neighbours outside its
        own subtree, in row order.  A child with none fails the re-home;
        the children re-homed before it keep their new parents.
        """
        tree = world.tree
        children = list(tree.children_of(sensor.sensor_id))
        if not children:
            return True
        table = world.protocol_neighbors().rows(children)
        rc = world.config.communication_range
        rc_limit = rc + LINK_EPS
        for child in children:
            position = world.sensor(child).position
            if position.distance_to(world.base_station) <= rc and tree.reparent(
                child, BASE_STATION_ID
            ):
                continue
            subtree = tree.subtree_of(child)
            for candidate in table.get(child, []):
                if candidate == sensor.sensor_id or candidate in subtree:
                    continue
                candidate_sensor = world.sensor(candidate)
                if not candidate_sensor.is_connected() or candidate not in tree:
                    continue
                # Live-range revalidation: a stale table entry may have
                # drifted out of range; adopting it would put a broken
                # link into the tree (no-op when the table is live).
                if position.distance_to(candidate_sensor.position) > rc_limit:
                    continue
                if tree.reparent(child, candidate):
                    break
            else:
                return False
        return True

    # ------------------------------------------------------------------
    # Lifecycle churn
    # ------------------------------------------------------------------
    def on_world_changed(self, world: World, change) -> None:
        """React to fault-injection events between periods.

        A dead sensor is evicted everywhere it is remembered: its floor-
        registry record (so expansion-point discovery stops treating its
        disk as covered), its searcher slot, any in-flight relocation (plus
        the virtual place-holder standing at the target EP) and any lazy
        path-parent state.  Sensors the tree repair dropped — and freshly
        injected ones — restart phase 1 as connection walkers.  A fixed
        sensor a new obstacle pushed out re-registers where it now stands
        and sends its floor header a location update up the tree.  Obstacle
        changes re-plan in-flight relocations against the new field right
        away, because ``_advance_relocations`` reads an empty path as
        "arrived at the expansion point".
        """
        if self._registry is None or self._lazy is None:
            return
        for sid in change.failed_ids:
            sensor = world.sensor(sid)
            self._lazy.stop_waiting(sensor)
            self._registry.unregister(sid)
            self._drop_searcher(sid)
            ep = self._relocations.pop(sid, None)
            if ep is not None:
                self._remove_virtual_for(ep)
        for sid in chain(change.disconnected_ids, change.added_ids):
            sensor = world.sensor(sid)
            if not sensor.is_alive() or sensor.is_connected():
                continue
            self._registry.unregister(sid)
            self._drop_searcher(sid)
            ep = self._relocations.pop(sid, None)
            if ep is not None:
                self._remove_virtual_for(ep)
            sensor.state = SensorState.MOVING_TO_CONNECT
            self._lazy.stop_waiting(sensor)
            sensor.motion.stop()
        for sid in change.displaced_ids:
            record = self._registry.record(sid)
            if record is None:
                continue
            self._registry.register(sid, world.sensor(sid).position, record.virtual)
            if sid in world.tree:
                world.routing.record_to_base_station(
                    world.tree, sid, MessageType.LOCATION_UPDATE
                )
        if change.obstacles_changed:
            assert self._planner_disperse is not None
            for sensor in world.sensors:
                if not sensor.is_alive():
                    continue
                ep = self._relocations.get(sensor.sensor_id)
                if ep is not None:
                    sensor.motion.follow(
                        self._planner_disperse.plan(sensor.position, ep.position)
                    )
                elif sensor.motion.has_path:
                    # Connection walks re-plan lazily on the next period.
                    sensor.motion.stop()

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def has_converged(self, world: World) -> bool:
        """FLOOR converges once nothing is moving and nothing is searching."""
        if self._phase != 3:
            return False
        if self._relocations:
            return False
        if any(
            not s.is_connected() for s in world.sensors if s.is_alive()
        ):
            return False
        return not self._active_searchers
