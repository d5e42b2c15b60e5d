"""Per-epoch neighbour snapshots of a World's live sensors.

A :class:`NeighborSnapshot` is the live sensors' ids and positions at one
*epoch*, captured in one list pass.  It answers neighbour queries at two
granularities:

* ``rows(ids)`` — the rows of a few sensors, by scanning the captured
  positions (FLOOR's connection walkers and the children a departing
  sensor re-homes, the members of a subtree the tree repair re-attaches);
* ``table()`` — every row, for callers that read all of them (CPVF's
  forces, the bootstrap flood, FLOOR's phase 2).  Up to
  :data:`DENSE_TABLE_MAX` live sensors it is the ``rows`` scan over all
  of them, one dense block; above, one ``SpatialIndex.directed_pairs``
  build, whose index the base station's one-hop neighbours share.

Every path applies the table's predicate to the same float64 coordinates
(``dx*dx + dy*dy <= (rc + LINK_EPS) ** 2`` with ``dx = x_i - x_j``, rows
in ascending id order), so a row is the same list whichever path served
it.  The caller's choice of method and the population decide which path
runs.

:class:`NeighborCache` keeps the current epoch's snapshot.  The epoch is
the communication range, the world's population version and the tuple of
per-sensor ``MotionModel.position_version`` counters, so it changes
exactly when a sensor moves, fails or joins, and an unchanged layout
never recomputes anything.  A snapshot never changes after capture: a
network model serving aged state keeps the one captured at its refresh
boundary and reads rows from it.

Everything handed out is a copy: callers may mutate what they get, and
several schemes do mutate neighbour lists in place.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..network import LINK_EPS
from .index import SpatialIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..sim.world import World

__all__ = ["NeighborCache", "NeighborSnapshot"]

#: Largest live population whose whole table is one dense block; up to
#: it, ``table()`` and the base station's neighbours skip the index.  Set
#: at the measured crossover (``NeighborCache(world).neighbor_table()``
#: on ``perfbench.perf_world``, 1000 m field, rc 60, best of 5 rounds of
#: 20 calls, 2-CPU x86_64, three repetitions; dense vs index): uniform
#: 0.16-0.18 vs 0.34-0.40 ms at n = 70, 0.45-0.59 vs 0.56-0.65 ms at
#: n = 150, 1.42-1.48 vs 0.84-0.96 ms at n = 240; clustered layouts
#: cross later (0.49-0.65 vs 0.71-0.97 ms at n = 170).
DENSE_TABLE_MAX = 150

#: Point queries inflate the radius before the exact range re-check so
#: borderline float rounding between the squared and sqrt formulations
#: can never drop a candidate.
_QUERY_SLACK = 1e-9


def _split_rows(
    owners: List[int], row: np.ndarray, col: np.ndarray, id_array: np.ndarray
) -> Dict[int, List[int]]:
    """``{owner: neighbour ids}`` from pair indices sorted by ``row``
    (``col`` ascending within a row): one slice of the packed neighbour
    list per owner instead of appending pair by pair."""
    flat = id_array[col].tolist()
    bounds = np.cumsum(np.bincount(row, minlength=len(owners))).tolist()
    rows: Dict[int, List[int]] = {}
    lo = 0
    for owner, hi in zip(owners, bounds):
        rows[owner] = flat[lo:hi]
        lo = hi
    return rows


class NeighborSnapshot:
    """The live sensors of one epoch and the neighbour structures derived
    from them, each built on first use.

    Every answer is the paper's unit disk of the world's single
    ``config.communication_range`` ``rc``: two nodes are linked when their
    squared distance is at most ``(rc + LINK_EPS) ** 2`` (base-station
    adjacency, a point query, tests the distance against
    ``rc + LINK_EPS``).  With telemetry on, ``neighbors.table_builds``
    counts full-table builds and ``neighbors.rows_read`` the rows served
    by :meth:`rows`.
    """

    def __init__(self, world: "World"):
        sensors = world.alive_sensors()
        self._world = world
        self._rc = world.config.communication_range
        #: Live sensor ids, ascending.
        self.ids: List[int] = [s.sensor_id for s in sensors]
        positions = [s.motion.position for s in sensors]
        self._xs: List[float] = [p.x for p in positions]
        self._ys: List[float] = [p.y for p in positions]
        #: ``(x, y, ids)`` as float64 / intp arrays, on first use.
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._index: Optional[SpatialIndex] = None
        self._table: Optional[Dict[int, List[int]]] = None
        self._base_neighbors: Optional[List[int]] = None
        self._component: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def rows(self, sensor_ids: Iterable[int]) -> Dict[int, List[int]]:
        """Rows of the live sensors among ``sensor_ids`` (a dead or
        unknown id gets no row), by testing each asked sensor against
        every captured one."""
        ids = self.ids
        count = len(ids)
        slots: Dict[int, int] = {}
        for sid in sensor_ids:
            slot = bisect_left(ids, sid)
            if slot < count and ids[slot] == sid:
                slots[sid] = slot
        tel = self._world.telemetry
        if tel.enabled:
            tel.count("neighbors.rows_read", len(slots))
        if not slots:
            return {}
        own = np.fromiter(slots.values(), dtype=np.intp, count=len(slots))
        return self._dense_rows(list(slots), own)

    def _dense_rows(
        self, owners: List[int], own: np.ndarray
    ) -> Dict[int, List[int]]:
        """Rows of ``owners`` (captured at slots ``own``), each owner
        tested against every captured sensor: the table's predicate on
        one ``len(own) x n`` block."""
        r = self._rc + LINK_EPS
        r2 = r * r
        x, y, id_array = self._as_arrays()
        dx = x[own][:, None] - x
        dy = y[own][:, None] - y
        # dx*dx + dy*dy in place: fewer block-sized temporaries.
        dx *= dx
        dy *= dy
        dx += dy
        hit = dx <= r2
        hit[np.arange(len(own)), own] = False
        row, col = np.nonzero(hit)
        return _split_rows(owners, row, col, id_array)

    def _as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = (
                np.array(self._xs, dtype=float),
                np.array(self._ys, dtype=float),
                np.array(self.ids, dtype=np.intp),
            )
        return self._arrays

    # ------------------------------------------------------------------
    # Whole-table structures
    # ------------------------------------------------------------------
    def _spatial_index(self) -> Optional[SpatialIndex]:
        """The index over the captured positions (``None`` up to
        :data:`DENSE_TABLE_MAX` live sensors, where one dense block is
        cheaper than building it)."""
        if len(self.ids) <= DENSE_TABLE_MAX:
            return None
        if self._index is None:
            x, y, _ = self._as_arrays()
            self._index = SpatialIndex(max(self._rc, 1e-9) * 1.001).build(
                np.column_stack((x, y))
            )
        return self._index

    def table(self) -> Dict[int, List[int]]:
        """Copy of the neighbour table (ids -> ids in range)."""
        return {sid: list(row) for sid, row in self._raw_table().items()}

    def _raw_table(self) -> Dict[int, List[int]]:
        if self._table is None:
            ids = self.ids
            tel = self._world.telemetry
            if tel.enabled:
                tel.count("neighbors.table_builds", 1)
            index = self._spatial_index()
            if index is None:
                self._table = self._dense_rows(ids, np.arange(len(ids)))
            else:
                rows, cols, _ = index.directed_pairs(self._rc + LINK_EPS)
                self._table = _split_rows(ids, rows, cols, self._as_arrays()[2])
        return self._table

    def base_station_neighbors(self) -> List[int]:
        """Copy of the base station's one-hop neighbourhood."""
        return list(self._raw_base_neighbors())

    def _raw_base_neighbors(self) -> List[int]:
        if self._base_neighbors is None:
            base = self._world.base_station
            rc = self._rc
            index = self._spatial_index()
            if index is None:
                candidates = range(len(self.ids))
            else:
                candidates = index.query_radius(
                    base, rc + 2.0 * _QUERY_SLACK
                ).tolist()
            xs, ys = self._xs, self._ys
            self._base_neighbors = [
                self.ids[i]
                for i in candidates
                if math.hypot(base.x - xs[i], base.y - ys[i]) <= rc + LINK_EPS
            ]
        return self._base_neighbors

    def connected_component(self) -> Set[int]:
        """Copy of the set of ids reachable from the base station
        (breadth-first over the table from the base station's one-hop
        neighbours)."""
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


class NeighborCache:
    """Per-world holder of the current epoch's :class:`NeighborSnapshot`."""

    def __init__(self, world: "World"):
        self._world = world
        self._epoch: Optional[tuple] = None
        self._snapshot: Optional[NeighborSnapshot] = None

    def snapshot(self) -> NeighborSnapshot:
        """The snapshot of the current epoch (captured on first use)."""
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
            self._snapshot = NeighborSnapshot(world)
        return self._snapshot

    def invalidate(self) -> None:
        """Drop the snapshot (the next query captures a new one)."""
        self._epoch = None
        self._snapshot = None

    def neighbor_table(self) -> Dict[int, List[int]]:
        """Copy of the current neighbour table (ids -> ids in range).

        ``World.neighbor_table`` and the live protocol table read through
        here, so timing this method (as ``e2ebench/tracer.py`` does)
        attributes their builds."""
        return self.snapshot().table()
