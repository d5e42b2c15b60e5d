"""The connectivity stage CPVF (Section 4, stage 1) and FLOOR (Section 5.2,
phase 1) share.

A flood from the base station builds the first tree over the base
station's connected component (:func:`flood_tree`).  Every other sensor
walks toward the base station under BUG2 and the lazy-movement strategy
(the per-scheme advance loops, which plan different trajectories) and
joins the tree as soon as a connected tree node is within its attach
distance (:func:`attach_reachable`): ``rc`` for CPVF, ``min(rc, 2*rs)``
for FLOOR.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..network import BASE_STATION_ID, LINK_EPS
from ..sensors import CONNECTED_STATES, Sensor, SensorState
from ..sim import World
from .lazy import LazyMovementController

__all__ = ["attach_reachable", "flood_tree", "walkers"]


def flood_tree(world: World) -> None:
    """Initial flood: the base station's connected component joins the tree.

    The tree grows breadth-first from the base station, so parents are
    always closer (in hops) to the root.  The component, the table and
    the base adjacency all come from the world's neighbour cache and
    share one spatial-index build.
    """
    component = world.connected_component_of()
    table = world.neighbor_table()
    near_base = set(world.sensors_near_base_station())
    frontier: List[int] = []
    for sid in sorted(near_base):
        world.attach_to_tree(sid, BASE_STATION_ID)
        frontier.append(sid)
    attached = set(near_base)
    net = world.network
    retransmissions = 0
    while frontier:
        current = frontier.pop(0)
        for nb in table.get(current, []):
            if nb in attached or nb not in component:
                continue
            # Each flood edge retransmits with backoff up to the delivery
            # budget; a node the flood never reaches stays disconnected
            # and joins through attach_reachable later.
            delivered, attempts = net.exchange(world, ("flood", current, nb), 1)
            retransmissions += attempts - 1
            if not delivered:
                continue
            world.attach_to_tree(nb, current)
            attached.add(nb)
            frontier.append(nb)
    world.routing.record_flood(len(attached) + retransmissions)


def walkers(world: World) -> List[Sensor]:
    """The live sensors not connected, in id order: one state read a
    sensor, for the period's attach sweeps and walks."""
    failed = SensorState.FAILED
    return [
        s
        for s in world.sensors
        if s.state is not failed and s.state not in CONNECTED_STATES
    ]


def attach_reachable(
    world: World,
    unconnected: List[Sensor],
    table: Dict[int, List[int]],
    attach_distance: float,
    lazy: LazyMovementController,
) -> List[int]:
    """Disconnected sensors next to the tree join it and stop.

    Sweeps the ``unconnected`` sensors (:func:`walkers`) until a sweep
    attaches nobody, so a sensor that joins can serve as the parent of
    one later in the same period; the attached ones leave
    ``unconnected``.  Returns the attached sensor ids in attach order.
    """
    attached: List[int] = []
    while unconnected:
        remaining: List[Sensor] = []
        for sensor in unconnected:
            parent_id = _nearest_tree_node(world, sensor, table, attach_distance)
            if parent_id is None:
                remaining.append(sensor)
                continue
            sensor.motion.stop()
            lazy.stop_waiting(sensor)
            world.attach_to_tree(sensor.sensor_id, parent_id)
            attached.append(sensor.sensor_id)
        if len(remaining) == len(unconnected):
            break
        unconnected[:] = remaining
    return attached


def _nearest_tree_node(
    world: World,
    sensor: Sensor,
    table: Dict[int, List[int]],
    attach_distance: float,
) -> Optional[int]:
    """The nearest of the base station, if within ``attach_distance``,
    and the connected tree members within ``attach_distance + LINK_EPS``."""
    best: Optional[int] = None
    best_dist = math.inf
    position = sensor.position
    base_dist = position.distance_to(world.base_station)
    if base_dist <= attach_distance:
        best, best_dist = BASE_STATION_ID, base_dist
    limit = attach_distance + LINK_EPS
    sensors = world.sensors
    for nb_id in table.get(sensor.sensor_id, []):
        nb = sensors[nb_id]
        # A connected sensor outside the tree (a FLOOR sensor relocating)
        # cannot serve as a parent.
        if nb.state not in CONNECTED_STATES or nb_id not in world.tree:
            continue
        # The live distance also drops stale table entries that moved out
        # of range since the last refresh.
        dist = position.distance_to(nb.position)
        if dist <= limit and dist < best_dist:
            best, best_dist = nb_id, dist
    return best
