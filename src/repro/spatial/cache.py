"""Epoch-based neighbor cache shared by a World's per-period queries.

One simulation period issues the same neighborhood computation several
times: the scheme asks for the neighbor table, the bootstrap flood asks
for the base station's component, the engine asks whether the network is
connected.  The cache builds one :class:`~repro.spatial.SpatialIndex` per
*epoch* — the tuple of per-sensor ``MotionModel.position_version``
counters — and derives all three answers from it; the epoch changes
exactly when some sensor's position is assigned, so an unchanged layout
never recomputes anything.

Cached structures are handed out as copies: the pre-cache ``World`` API
returned freshly built dicts/lists/sets that callers were free to mutate,
and several schemes do mutate neighbor lists in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

import numpy as np

from ..network import LINK_EPS
from .index import SpatialIndex, pack_positions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..sim.world import World

__all__ = ["NeighborCache"]

#: Point queries inflate the radius before the exact range re-check so
#: borderline float rounding between the squared and sqrt formulations
#: can never drop a candidate.
_QUERY_SLACK = 1e-9

class NeighborCache:
    """Per-world cache of neighbor structures, invalidated by movement.

    Every answer is the paper's unit disk of the world's single
    ``config.communication_range`` ``rc``: two nodes are linked when their
    squared distance is at most ``(rc + LINK_EPS) ** 2`` (base-station
    adjacency, a point query, tests the distance against
    ``rc + LINK_EPS``).
    """

    def __init__(self, world: "World"):
        self._world = world
        self._epoch: Optional[tuple] = None
        self._reset()

    def _reset(self) -> None:
        self._index: Optional[SpatialIndex] = None
        self._table: Optional[Dict[int, List[int]]] = None
        self._base_neighbors: Optional[List[int]] = None
        self._component: Optional[Set[int]] = None
        self._alive: Optional[list] = None

    def _alive_sensors(self) -> list:
        """Live sensors for the current epoch (``world.sensors`` itself
        while the population is intact, so static runs are untouched)."""
        if self._alive is None:
            self._alive = self._world.alive_sensors()
        return self._alive

    # ------------------------------------------------------------------
    # Epoch handling
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        world = self._world
        # Position versions carry the per-period invalidation; the range
        # is included so a mid-run config change cannot serve a stale
        # table.  population_version covers churn (a failure flips
        # aliveness without touching any position_version; an injection
        # changes the tuple length too, but only the version captures
        # removal).
        epoch = (
            world.config.communication_range,
            world.population_version,
            tuple(s.motion.position_version for s in world.sensors),
        )
        if epoch != self._epoch:
            self._epoch = epoch
            self._reset()

    def invalidate(self) -> None:
        """Drop all cached structures (next query recomputes)."""
        self._epoch = None
        self._reset()

    # ------------------------------------------------------------------
    # Shared index
    # ------------------------------------------------------------------
    def _spatial_index(self) -> Optional[SpatialIndex]:
        """The shared index over the live sensors for the current epoch
        (``None`` below two sensors, where there is no pair to find)."""
        sensors = self._alive_sensors()
        if len(sensors) < 2:
            return None
        if self._index is None:
            rc = self._world.config.communication_range
            self._index = SpatialIndex(max(rc, 1e-9) * 1.001).build(
                pack_positions(sensors)
            )
        return self._index

    # ------------------------------------------------------------------
    # Cached queries
    # ------------------------------------------------------------------
    def neighbor_table(self) -> Dict[int, List[int]]:
        """Copy of the cached neighbor table (ids -> ids in range)."""
        self._validate()
        table = self._raw_table()
        return {sid: list(neighbors) for sid, neighbors in table.items()}

    def _raw_table(self) -> Dict[int, List[int]]:
        if self._table is None:
            sensors = self._alive_sensors()
            ids = [s.sensor_id for s in sensors]
            index = self._spatial_index()
            if index is None:
                self._table = {sid: [] for sid in ids}
                return self._table
            rows, cols, _ = index.directed_pairs(
                self._world.config.communication_range + LINK_EPS
            )
            # rows is sorted, cols ascending within each row: slice the
            # packed neighbour list per sensor instead of appending pair
            # by pair.
            flat = np.asarray(ids, dtype=np.intp)[cols].tolist()
            bounds = np.cumsum(np.bincount(rows, minlength=len(ids))).tolist()
            table: Dict[int, List[int]] = {}
            lo = 0
            for sensor_id, hi in zip(ids, bounds):
                table[sensor_id] = flat[lo:hi]
                lo = hi
            self._table = table
        return self._table

    def base_station_neighbors(self) -> List[int]:
        """Copy of the cached one-hop neighborhood of the base station."""
        self._validate()
        return list(self._raw_base_neighbors())

    def _raw_base_neighbors(self) -> List[int]:
        if self._base_neighbors is None:
            world = self._world
            base = world.base_station
            rc = world.config.communication_range
            sensors = self._alive_sensors()
            index = self._spatial_index()
            if index is None:
                candidates = range(len(sensors))
            else:
                candidates = index.query_radius(
                    base, rc + 2.0 * _QUERY_SLACK
                ).tolist()
            self._base_neighbors = [
                sensors[i].sensor_id
                for i in candidates
                if base.distance_to(sensors[i].position) <= rc + LINK_EPS
            ]
        return self._base_neighbors

    def connected_component(self) -> Set[int]:
        """Copy of the cached set of ids reachable from the base station
        (breadth-first over the neighbour table from the base station's
        one-hop neighbours)."""
        self._validate()
        if self._component is None:
            table = self._raw_table()
            frontier = list(self._raw_base_neighbors())
            reached: Set[int] = set(frontier)
            while frontier:
                current = frontier.pop()
                for nxt in table.get(current, ()):
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
            self._component = reached
        return set(self._component)
