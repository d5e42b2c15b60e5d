"""Per-epoch neighbour snapshots of a World's live sensors.

A :class:`NeighborSnapshot` is the live sensors' ids and positions at one
*epoch*: the ids and the (frozen) ``Vec2`` positions, captured in one
list pass each; the float coordinates are derived on the first query.
It answers neighbour queries at two granularities:

* ``rows(ids)`` — the rows of a few sensors, by scanning the captured
  positions (FLOOR's connection walkers and the children a departing
  sensor re-homes, the members of a subtree the tree repair re-attaches):
  a scalar loop for a few owners, one dense block for more;
* ``table()`` — every row, for callers that read all of them (CPVF's
  forces, the bootstrap flood, FLOOR's phase 2), and ``pair_ids()``, the
  same rows as two arrays.  Up to :data:`DENSE_TABLE_MAX` live sensors it
  is the dense ``rows`` block over all of them; above, one
  ``SpatialIndex.directed_pairs`` build, whose index the base station's
  one-hop neighbours share.

Every path applies the table's predicate to the same float64 coordinates
(``dx*dx + dy*dy <= (rc + LINK_EPS) ** 2`` with ``dx = x_i - x_j``, rows
in ascending id order), so a row is the same list whichever path served
it.  The caller's choice of method and the population decide which path
runs.

:class:`NeighborCache` keeps the current epoch's snapshot.  The epoch is
the communication range, the world's population version and its
position clock (``World.position_clock``, which every position write
of a sensor's ``MotionModel`` bumps), so it changes exactly when a
sensor is moved, fails or joins, and an unchanged layout never
recomputes anything.  Checking it is O(1), not a pass over the sensors.  A snapshot never changes after
capture: a network model serving aged state keeps the one captured at
its refresh boundary and reads rows from it.

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

#: ``rows`` scans the captured floats in Python while it asks at most
#: this many pair tests (owners x live sensors); a larger ask is one
#: NumPy block.  Set at the measured crossover (``rows`` on
#: ``perfbench.perf_world``, uniform, best of 5 rounds of 200 calls,
#: 2-CPU x86_64; scalar vs block): on a fresh snapshot 19 vs 34 us for
#: 1 of 70 sensors, 29 vs 37 us for 2, 38 vs 36 us for 3, 40 vs 53 us
#: for 1 of 150 and 52 vs 53 us for 2; on a snapshot whose arrays exist
#: 14 vs 15 us for 2 of 70.
SCALAR_ROWS_MAX_TESTS = 200

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
        #: Their positions: ``Vec2`` is frozen, so the references are a
        #: snapshot however the sensors move afterwards.
        self._positions = [s.motion.position for s in sensors]
        #: The positions' ``x`` and ``y`` lists, on first use.
        self._coordinates: Optional[Tuple[List[float], List[float]]] = None
        #: ``(x, y, ids)`` as float64 / intp arrays, on first use.
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._index: Optional[SpatialIndex] = None
        #: Slot pairs ``(rows, cols)`` of the whole table, on first use.
        self._pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._table: Optional[Dict[int, List[int]]] = None
        self._base_neighbors: Optional[List[int]] = None
        self._component: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def rows(self, sensor_ids: Iterable[int]) -> Dict[int, List[int]]:
        """Rows of the live sensors among ``sensor_ids`` (a dead or
        unknown id gets no row), by testing each asked sensor against
        every captured one: in a scalar loop up to
        :data:`SCALAR_ROWS_MAX_TESTS` pair tests, else in one block."""
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
        if len(slots) * count <= SCALAR_ROWS_MAX_TESTS:
            return self._scalar_rows(slots)
        own = np.fromiter(slots.values(), dtype=np.intp, count=len(slots))
        row, col = self._dense_pairs(own)
        return _split_rows(list(slots), row, col, self._as_arrays()[2])

    def _scalar_rows(self, slots: Dict[int, int]) -> Dict[int, List[int]]:
        """Rows of the owners ``{id: slot}``, the table's predicate on
        the captured floats one pair at a time."""
        r = self._rc + LINK_EPS
        r2 = r * r
        ids = self.ids
        xs, ys = self._xy()
        rows: Dict[int, List[int]] = {}
        for sid, slot in slots.items():
            x, y = xs[slot], ys[slot]
            rows[sid] = [
                other
                for other, ox, oy in zip(ids, xs, ys)
                if (dx := x - ox) * dx + (dy := y - oy) * dy <= r2
                and other != sid
            ]
        return rows

    def _dense_pairs(self, own: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pairs ``(row, col)`` of the owners captured at slots ``own``
        (``row`` indexes ``own``, ``col`` a slot), each owner tested
        against every captured sensor: the table's predicate on one
        ``len(own) x n`` block."""
        r = self._rc + LINK_EPS
        r2 = r * r
        x, y, _ = self._as_arrays()
        dx = x[own][:, None] - x
        dy = y[own][:, None] - y
        # dx*dx + dy*dy in place: fewer block-sized temporaries.
        dx *= dx
        dy *= dy
        dx += dy
        hit = dx <= r2
        hit[np.arange(len(own)), own] = False
        return np.nonzero(hit)

    def _xy(self) -> Tuple[List[float], List[float]]:
        if self._coordinates is None:
            positions = self._positions
            self._coordinates = (
                [p.x for p in positions],
                [p.y for p in positions],
            )
        return self._coordinates

    def _as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            xs, ys = self._xy()
            self._arrays = (
                np.array(xs, dtype=float),
                np.array(ys, dtype=float),
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

    def pair_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """The table as two id arrays ``(rows, cols)``: one entry per
        directed neighbour pair, sorted by row, then by column (the
        table's rows, concatenated in ascending id order)."""
        rows, cols = self._slot_pairs()
        id_array = self._as_arrays()[2]
        return id_array[rows], id_array[cols]

    def _slot_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every directed pair of captured slots, sorted by row then
        column."""
        if self._pairs is None:
            index = self._spatial_index()
            if index is None:
                self._pairs = self._dense_pairs(np.arange(len(self.ids)))
            else:
                rows, cols, _ = index.directed_pairs(self._rc + LINK_EPS)
                self._pairs = (rows, cols)
        return self._pairs

    def _raw_table(self) -> Dict[int, List[int]]:
        if self._table is None:
            tel = self._world.telemetry
            if tel.enabled:
                tel.count("neighbors.table_builds", 1)
            rows, cols = self._slot_pairs()
            self._table = _split_rows(self.ids, rows, cols, self._as_arrays()[2])
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
            xs, ys = self._xy()
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
        self._clock = world.position_clock
        self._epoch: Optional[tuple] = None
        self._snapshot: Optional[NeighborSnapshot] = None

    def snapshot(self) -> NeighborSnapshot:
        """The snapshot of the current epoch (captured on first use)."""
        world = self._world
        # The position clock carries the per-period invalidation; the
        # range is included so a mid-run config change cannot serve a
        # stale table.  population_version covers churn (a failure flips
        # aliveness without writing any position).
        epoch = (
            world.config.communication_range,
            world.population_version,
            self._clock.writes,
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
