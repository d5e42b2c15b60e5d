"""The simulation world: field, sensors, tree and statistics.

The world is the shared state a deployment scheme manipulates.  It owns the
sensor population, the connectivity tree rooted at the base station, the
message-accounting sinks and convenience queries (neighbour tables, network
connectivity, coverage) that the schemes and the metrics layer both use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple


from ..field import Field, clustered_placement
from ..geometry import Vec2
from ..mobility import MotionModel, PositionClock
from ..network import (
    BASE_STATION_ID,
    ConnectivityTree,
    MessageStats,
    MessageType,
    NetworkModel,
    LINK_EPS,
    PERFECT_NETWORK,
    RoutingCostModel,
)
from ..obs import NULL_TELEMETRY, Telemetry
from ..sensors import CONNECTED_STATES, Sensor, SensorState
from ..spatial import IncrementalCoverage, NeighborCache, NeighborSnapshot
from .config import SimulationConfig

__all__ = ["World"]


@dataclass
class World:
    """Mutable simulation state shared by the engine and the scheme."""

    config: SimulationConfig
    field: Field
    sensors: List[Sensor]
    tree: ConnectivityTree
    stats: MessageStats
    routing: RoutingCostModel
    rng: random.Random
    time: float = 0.0
    period_index: int = 0
    #: Bumped whenever the *set* of live sensors changes (failure or mid-run
    #: injection).  Cache epochs include it, so population churn invalidates
    #: derived structures even when no surviving sensor moved.
    population_version: int = 0
    #: Telemetry distribution point: the engine installs its collector
    #: here, so schemes / tree repair / fault injection reach it through
    #: the world they already hold.  The shared null instance makes the
    #: default a no-op.
    telemetry: Telemetry = field(
        default=NULL_TELEMETRY, repr=False, compare=False
    )
    #: Delivery-condition model consulted at protocol decision points.
    #: The shared perfect instance is a pass-through, so the default is
    #: byte-identical to the pre-conditions behaviour; the run layer
    #: installs a lossy or stale ``NetworkModel`` when the spec asks for
    #: one.
    network: NetworkModel = field(
        default=PERFECT_NETWORK, repr=False, compare=False
    )
    _neighbor_cache: Optional[NeighborCache] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(field.version, tracker)`` per ``(sensing range, resolution)``.
    _coverage_trackers: Dict[
        Tuple[float, float], Tuple[int, IncrementalCoverage]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)
    #: The clock the sensors' position writes bump (see
    #: :meth:`__post_init__`).
    position_clock: PositionClock = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The sensors share one position clock.  Sensors that already
        # share one (another world over the same sensors, such as a test
        # oracle's) keep it, so each world sees every write.
        motions = [s.motion for s in self.sensors]
        clock = motions[0].clock if motions else PositionClock()
        unshared = clock is MotionModel.clock
        if unshared or any(m.clock is not clock for m in motions):
            clock = PositionClock()
            for motion in motions:
                motion.clock = clock
        self.position_clock = clock

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def create(
        config: SimulationConfig,
        field: Field,
        initial_positions: Optional[Sequence[Vec2]] = None,
        placement: Callable[..., Sequence[Vec2]] = clustered_placement,
    ) -> "World":
        """Build a world with sensors placed at their initial positions.

        The placement is drawn exactly once, from the world's own RNG
        stream, by the strategy callable ``(config, field, rng) ->
        positions``; the default is the registered ``clustered`` strategy
        (the lower-left quadrant, the paper's main setting).  Explicit
        ``initial_positions`` bypass the draw entirely.
        """
        rng = random.Random(config.seed)
        if initial_positions is None:
            initial_positions = list(placement(config, field, rng))
        if len(initial_positions) != config.sensor_count:
            raise ValueError(
                "number of initial positions does not match sensor_count"
            )
        sensors = [
            Sensor(
                sensor_id=i,
                motion=MotionModel(
                    position=pos,
                    max_speed=config.max_speed,
                    period=config.period,
                ),
                sensing_range=config.sensing_range,
            )
            for i, pos in enumerate(initial_positions)
        ]
        stats = MessageStats()
        return World(
            config=config,
            field=field,
            sensors=sensors,
            tree=ConnectivityTree(),
            stats=stats,
            routing=RoutingCostModel(stats),
            rng=rng,
        )

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def sensor(self, sensor_id: int) -> Sensor:
        """The sensor with the given id."""
        return self.sensors[sensor_id]

    @property
    def base_station(self) -> Vec2:
        """Position of the base station / reference point."""
        return self.config.base_station

    def positions(self) -> List[Vec2]:
        """Current positions of all sensors, in id order."""
        return [s.position for s in self.sensors]

    def alive_sensors(self) -> List[Sensor]:
        """The operational (non-FAILED) sensors, in id order.

        Returns the ``sensors`` list itself while no sensor has failed, so
        static runs take exactly the pre-lifecycle code paths.
        """
        sensors = self.sensors
        # One enum lookup, not one per sensor: this runs on every
        # neighbour snapshot.
        failed = SensorState.FAILED
        alive = [s for s in sensors if s.state is not failed]
        return sensors if len(alive) == len(sensors) else alive

    def alive_count(self) -> int:
        """Number of operational sensors."""
        failed = SensorState.FAILED
        return sum(1 for s in self.sensors if s.state is not failed)

    def _cache(self) -> NeighborCache:
        if self._neighbor_cache is None:
            self._neighbor_cache = NeighborCache(self)
        return self._neighbor_cache

    def neighbor_table(self) -> Dict[int, List[int]]:
        """Current neighbour lists (ids within communication range)."""
        return self._cache().neighbor_table()

    def neighbor_snapshot(self) -> NeighborSnapshot:
        """The live sensors' positions now, serving rows (without
        building the whole table) and tables."""
        return self._cache().snapshot()

    def protocol_neighbors(self) -> NeighborSnapshot:
        """Neighbour snapshot as the *protocol* layer sees it.

        Routed through the network model: live under the perfect network,
        possibly aged under a :class:`~repro.network.conditions
        .NetworkModel` with staleness.  Each call is one protocol read;
        rows and tables asked of the snapshot it returns are not.
        Physics queries (coverage, connectivity, movement validation)
        must keep using :meth:`neighbor_table` and
        :meth:`neighbor_snapshot`.
        """
        return self.network.neighbors(self)

    def sensors_near_base_station(self) -> List[int]:
        """Sensors within one hop of the base station."""
        return self.neighbor_snapshot().base_station_neighbors()

    def connected_component_of(self) -> Set[int]:
        """Ids of sensors reachable from the base station via multi-hop links."""
        return self.neighbor_snapshot().connected_component()

    def connected_sensor_ids(self) -> List[int]:
        """Sensors currently marked as connected (any connected state)."""
        return [s.sensor_id for s in self.sensors if s.state in CONNECTED_STATES]

    # ------------------------------------------------------------------
    # Global metrics
    # ------------------------------------------------------------------
    def coverage(self) -> float:
        """Fraction of non-obstacle field area covered by sensing disks.

        The incremental tracker re-rasterises only the disks of sensors
        that moved since the previous call; the result is identical to the
        brute-force ``Field.coverage_fraction`` scan.  With telemetry on,
        ``coverage.updates`` counts the calls and ``coverage.disks`` the
        disks they rasterised.
        """
        alive = self.alive_sensors()
        key = (self.config.sensing_range, self.config.coverage_resolution)
        version = self.field.version
        entry = self._coverage_trackers.get(key)
        if entry is None or entry[0] != version:
            # A new obstacle set needs a tracker on its own mask.
            tracker = IncrementalCoverage(self.field, key[0], key[1])
            self._coverage_trackers[key] = (version, tracker)
        else:
            tracker = entry[1]
        # One flat float list: numpy converts it far faster than a list
        # of ``(x, y)`` tuples.
        coords = []
        for sensor in alive:
            position = sensor.position
            coords += (position.x, position.y)
        disks = tracker.update(coords)
        if self.telemetry.enabled:
            self.telemetry.count("coverage.updates", 1)
            self.telemetry.count("coverage.disks", disks)
        return tracker.covered_fraction()

    def network_is_connected(self) -> bool:
        """Whether every live sensor has a multi-hop route to the base station."""
        return len(self.connected_component_of()) == self.alive_count()

    def total_moving_distance(self) -> float:
        """Sum of all sensors' odometers."""
        return sum(s.moving_distance for s in self.sensors)

    def average_moving_distance(self) -> float:
        """Average odometer reading per sensor."""
        if not self.sensors:
            return 0.0
        return self.total_moving_distance() / len(self.sensors)

    # ------------------------------------------------------------------
    # Tree maintenance helpers
    # ------------------------------------------------------------------
    def attach_to_tree(self, sensor_id: int, parent_id: int) -> None:
        """Attach a sensor to the connectivity tree and mark it connected."""
        self.tree.attach(sensor_id, parent_id)
        sensor = self.sensor(sensor_id)
        if not sensor.state.is_connected():
            sensor.state = SensorState.CONNECTED

    # ------------------------------------------------------------------
    # Population churn (fault injection)
    # ------------------------------------------------------------------
    def add_sensor(self, position: Vec2) -> Sensor:
        """Inject a new (disconnected) sensor at ``position``.

        The sensor is appended so its id equals its list index, preserving
        the id-as-index invariant every fast path relies on.  The position
        is clamped to the field and pushed out of obstacles.
        """
        pos = self.field.nearest_free(self.field.clamp(position))
        motion = MotionModel(
            position=pos, max_speed=self.config.max_speed, period=self.config.period
        )
        motion.clock = self.position_clock
        sensor = Sensor(
            sensor_id=len(self.sensors),
            motion=motion,
            sensing_range=self.config.sensing_range,
        )
        self.sensors.append(sensor)
        self.population_version += 1
        if self._neighbor_cache is not None:
            self._neighbor_cache.invalidate()
        return sensor

    def remove_sensor(self, sensor_id: int) -> List[int]:
        """Mark a sensor FAILED and repair the connectivity tree around it.

        The dead sensor keeps its slot in ``sensors`` (ids stay equal to
        indices) but leaves the tree; each orphaned subtree is re-rooted at
        a member with a live link back to the remaining tree (or to the
        base station) and re-attached there.  Subtrees with no such link
        fall out of the tree entirely — their members revert to
        DISCONNECTED and are returned so the scheme can send them walking
        again.
        """
        sensor = self.sensor(sensor_id)
        if sensor.state is SensorState.FAILED:
            return []
        sensor.motion.stop()
        sensor.state = SensorState.FAILED
        sensor.idle_periods = 0
        self.population_version += 1
        if self._neighbor_cache is not None:
            self._neighbor_cache.invalidate()
        with self.telemetry.span("tree.repair"):
            disconnected = self._repair_tree_after_failure(sensor_id)
        if self.telemetry.enabled:
            self.telemetry.count("tree.repairs", 1)
            self.telemetry.count("tree.repair_dropped", len(disconnected))
        return disconnected

    def _repair_tree_after_failure(self, sensor_id: int) -> List[int]:
        """Re-attach (or drop) the subtrees orphaned by a node death."""
        tree = self.tree
        if sensor_id not in tree.parent:
            return []
        orphan_roots = tree.remove_node(sensor_id)
        if not orphan_roots:
            return []
        anchored = tree.subtree_of(BASE_STATION_ID)
        dropped: List[int] = []
        pending = list(orphan_roots)
        progress = True
        # An orphan subtree may only reach the main tree through another
        # orphan that re-attaches first, so iterate to a fixpoint.
        while pending and progress:
            progress = False
            remaining: List[int] = []
            for root in pending:
                if self._reattach_orphan_subtree(root, anchored):
                    progress = True
                else:
                    remaining.append(root)
            pending = remaining
        for root in pending:
            members = tree.discard_floating(root)
            for member_id in members:
                self.sensor(member_id).state = SensorState.DISCONNECTED
            dropped.extend(members)
        return sorted(dropped)

    def _reattach_orphan_subtree(self, root: int, anchored: Set[int]) -> bool:
        """Try to re-attach one floating subtree to the anchored tree.

        Every subtree member probes its neighbourhood (one TREE_REPAIR
        transmission each); the member with the shortest live link to an
        anchored node becomes the subtree's new root and attaches there.
        On success ``anchored`` is extended with the subtree's members.

        Under a lossy network the two-message attach handshake (new-root
        announcement + attach request) retransmits with exponential
        backoff up to the delivery budget; if it still fails the subtree
        is treated as unreachable this round — the caller's fixpoint may
        retry it via another orphan, else it is discarded and its members
        revert to DISCONNECTED (the existing safe state).
        """
        tree = self.tree
        members = sorted(tree.subtree_of(root))
        member_set = set(members)
        table = self.neighbor_snapshot().rows(members)
        self.stats.record_transmissions(MessageType.TREE_REPAIR, len(members))
        best: Optional[Tuple[float, int, int]] = None
        rc = self.config.communication_range
        for member_id in members:
            pos = self.sensor(member_id).position
            base_distance = pos.distance_to(self.base_station)
            if base_distance <= rc + LINK_EPS:
                candidate = (base_distance, member_id, BASE_STATION_ID)
                if best is None or candidate < best:
                    best = candidate
            for neighbor_id in table.get(member_id, ()):
                if neighbor_id in member_set or neighbor_id not in anchored:
                    continue
                distance = pos.distance_to(self.sensor(neighbor_id).position)
                candidate = (distance, member_id, neighbor_id)
                if best is None or candidate < best:
                    best = candidate
        if best is None:
            return False
        _, new_root, anchor_id = best
        delivered, attempts = self.network.exchange(
            self, ("tree.repair", root, new_root, anchor_id), 2
        )
        # New root announcement + attach request (per delivery attempt).
        self.stats.record_transmissions(MessageType.TREE_REPAIR, 2 * attempts)
        if not delivered:
            return False
        tree.reroot_floating(root, new_root)
        tree.attach(new_root, anchor_id)
        anchored.update(member_set)
        self.telemetry.count("tree.repair_reattached", len(members))
        return True
