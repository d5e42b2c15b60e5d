"""Brute-force neighbour queries, components and an uncached world
(parity references)."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.network import LINK_EPS
from repro.sim import World


def double_loop_components(positions, communication_range: float) -> List[List[int]]:
    """:func:`repro.metrics.connected_components` from the all-pairs loop.

    Two positions are linked when their squared distance is at most
    ``(communication_range + LINK_EPS) ** 2``.  Components come ordered by
    their smallest index, each listing its indices in ascending order.
    """
    r = communication_range + LINK_EPS
    r_sq = r * r
    parent = list(range(len(positions)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i, pi in enumerate(positions):
        for j in range(i + 1, len(positions)):
            dx = pi.x - positions[j].x
            dy = pi.y - positions[j].y
            if dx * dx + dy * dy <= r_sq:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups: Dict[int, List[int]] = {}
    for i in range(len(positions)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


@dataclass(frozen=True)
class BruteRadio:
    """Dense-scan answers to every neighbour query of the unit-disk model.

    The reference the :class:`~repro.spatial.NeighborCache` fast paths are
    checked against: two nodes are linked when their squared distance is
    at most ``(communication_range + LINK_EPS) ** 2`` (a point query
    compares the distance against ``communication_range + LINK_EPS``).
    """

    communication_range: float

    def _within(self, sensors):
        """The full in-range matrix (no self-links)."""
        xs = np.array([s.position.x for s in sensors], dtype=float)
        ys = np.array([s.position.y for s in sensors], dtype=float)
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        d2 = dx * dx + dy * dy
        limit = self.communication_range + LINK_EPS
        within = d2 <= limit * limit
        np.fill_diagonal(within, False)
        return within

    def neighbor_table(self, sensors) -> Dict[int, List[int]]:
        """Neighbour lists keyed by sensor id, from the full distance matrix."""
        ids = [s.sensor_id for s in sensors]
        within = self._within(sensors)
        return {
            ids[i]: [ids[j] for j in np.flatnonzero(within[i]).tolist()]
            for i in range(len(ids))
        }

    def neighbors_of_point(self, point, sensors) -> List[int]:
        """Ids of the sensors in range of ``point``, in input order."""
        limit = self.communication_range + LINK_EPS
        return [
            s.sensor_id for s in sensors if point.distance_to(s.position) <= limit
        ]

    def connected_component_of(self, sensors, base_station) -> Set[int]:
        """Ids reachable from ``base_station`` over multi-hop links."""
        table = self.neighbor_table(sensors)
        frontier = self.neighbors_of_point(base_station, sensors)
        reached: Set[int] = set(frontier)
        while frontier:
            for nxt in table.get(frontier.pop(), ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        return reached

    def network_is_connected(self, sensors, base_station) -> bool:
        """Whether every sensor has a multi-hop route to ``base_station``."""
        component = self.connected_component_of(sensors, base_station)
        return len(component) == len(sensors)


class BruteSnapshot:
    """The live sensors' neighbour rows and table from one
    :class:`BruteRadio` scan at construction: the oracle counterpart of
    :class:`~repro.spatial.NeighborSnapshot` (copies, like it)."""

    def __init__(self, world: "UncachedWorld"):
        self._table = world.brute.neighbor_table(world.alive_sensors())

    def rows(self, sensor_ids) -> Dict[int, List[int]]:
        table = self._table
        return {sid: list(table[sid]) for sid in sensor_ids if sid in table}

    def table(self) -> Dict[int, List[int]]:
        return {sid: list(row) for sid, row in self._table.items()}

    def pair_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        rows = [sid for sid in sorted(self._table) for _ in self._table[sid]]
        cols = [nb for sid in sorted(self._table) for nb in self._table[sid]]
        return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


class UncachedWorld(World):
    """A world whose queries recompute from scratch on every call.

    Neighbour queries, the protocol layer's included, are
    :class:`BruteRadio` scans over the live sensors, and coverage is the
    library's brute-force ``Field.coverage_fraction`` scan — no
    ``NeighborCache``, no ``IncrementalCoverage``.
    """

    @property
    def brute(self) -> BruteRadio:
        return BruteRadio(self.config.communication_range)

    def neighbor_table(self) -> Dict[int, List[int]]:
        return self.brute.neighbor_table(self.alive_sensors())

    def neighbor_snapshot(self) -> BruteSnapshot:
        return BruteSnapshot(self)

    def sensors_near_base_station(self) -> List[int]:
        return self.brute.neighbors_of_point(
            self.base_station, self.alive_sensors()
        )

    def connected_component_of(self) -> Set[int]:
        return self.brute.connected_component_of(
            self.alive_sensors(), self.base_station
        )

    def coverage(self) -> float:
        return self.field.coverage_fraction(
            [s.position for s in self.alive_sensors()],
            self.config.sensing_range,
            self.config.coverage_resolution,
        )

    def network_is_connected(self) -> bool:
        return self.brute.network_is_connected(
            self.alive_sensors(), self.base_station
        )


def uncached(world: World) -> UncachedWorld:
    """An :class:`UncachedWorld` over ``world``'s state.

    The sensors, tree, statistics and RNG are shared with ``world``;
    scalar fields (time, period and population counters) are copied.
    """
    state = {f.name: getattr(world, f.name) for f in fields(World) if f.init}
    return UncachedWorld(**state)
