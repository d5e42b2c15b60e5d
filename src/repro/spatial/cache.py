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

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

import numpy as np

from ..network import LINK_EPS
from .index import SpatialIndex, pack_positions
from .pairstore import PairStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..sim.world import World

__all__ = ["NeighborCache"]

#: Point queries inflate the radius before the exact range re-check so
#: borderline float rounding between the squared and sqrt formulations
#: can never drop a candidate.
_QUERY_SLACK = 1e-9

#: The incremental pair store is generated at ``limit * (1 + fraction)``:
#: the inflation is the drift slack — sensors may drift up to half of
#: ``fraction * limit`` from their anchored positions before the store
#: needs repairing, so at a 60-80 m range a store survives many periods
#: of ``max_step``-bounded CPVF movement between repairs.
_STORE_SLACK_FRACTION = 0.2

#: When more than ``max(32, n // _STORE_REBUILD_DIVISOR)`` sensors exceed
#: their drift budget at once (mass teleport, scenario reset), a fresh
#: bulk build is cheaper than per-mover probing.
_STORE_REBUILD_DIVISOR = 8


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
        # The incremental pair store survives epoch changes (position
        # drift is exactly what it absorbs); only population churn or an
        # explicit invalidate() drops it.
        self._pair_store: Optional[PairStore] = None
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
        """Drop all cached structures (next query recomputes).

        Also drops the incremental pair store: ``invalidate`` is the
        churn path (``World.add_sensor``/``remove_sensor`` call it), and
        a population change invalidates the store's anchors wholesale —
        the next pair request rebuilds it over the survivors.
        """
        self._epoch = None
        self._pair_store = None
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
            rows, cols, _ = index.neighbor_pairs_directed(
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

    def neighbor_pairs(
        self, extra_radius: float = 0.0, with_d2: bool = False
    ):
        """Directed neighbour pairs as packed index arrays.

        Returns ``(rows, cols)`` (or ``(rows, cols, d2)`` with
        ``with_d2``): ``cols[k]`` is within ``rc + extra_radius`` (plus
        the link tolerance) of ``rows[k]``; both are indices into
        ``world.sensors`` (identical to sensor ids), sorted
        lexicographically by ``(row, col)``, and ``d2`` is the exact
        squared distance.  With ``extra_radius=0`` the accepted pair set
        is exactly the one :meth:`neighbor_table` lists, packed flat for
        array consumers (the batched CPVF kernel) instead of materialising
        per-sensor Python lists; the kernel asks for ``2 * max_step`` more
        to enumerate parent-change candidates that may drift into range
        during the period.  Every request is answered from the
        incremental :class:`~repro.spatial.PairStore`.
        """
        self._validate()
        rows, cols, d2 = self._store_pairs(extra_radius)
        if with_d2:
            return rows, cols, d2
        return rows, cols

    @staticmethod
    def _mover_cap(n: int) -> int:
        return max(32, n // _STORE_REBUILD_DIVISOR)

    def _store_pairs(self, extra_radius: float) -> tuple:
        """Serve a pair request from the incremental store.

        Maintains the store over the live sensors: builds it on first use
        or after churn, repairs it when a few sensors have out-drifted
        their slack budget, rebuilds it on mass movement.  The answer is
        exact either way — bit-identical to a fresh
        ``neighbor_pairs_directed`` build (pinned by
        ``tests/spatial/test_pair_store.py``).  The maintenance decision
        is reported where it is made: a rebuild runs under the
        ``cpvf.pairs`` span and counts ``cpvf.pairs_rebuilt``, a serve or
        repair runs under ``cpvf.pairs_incremental`` and counts
        ``cpvf.pairs_repaired`` (the batched CPVF kernel is the caller).
        """
        world = self._world
        sensors = self._alive_sensors()
        index = self._spatial_index()
        if index is None:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty.copy(), np.empty(0, dtype=float)
        limit = world.config.communication_range + LINK_EPS + extra_radius
        x, y = index.xs, index.ys
        store = self._pair_store
        movers = None if store is None else store.movers(x, y, limit)
        rebuild = movers is None or len(movers) > self._mover_cap(len(x))
        tel = world.telemetry
        with tel.span("cpvf.pairs" if rebuild else "cpvf.pairs_incremental"):
            if rebuild:
                store = PairStore.build(
                    x, y, limit * (1.0 + _STORE_SLACK_FRACTION)
                )
                self._pair_store = store
            elif len(movers):
                store.repair(x, y, movers)
            rows, cols, d2 = store.serve(x, y, limit)
        tel.count("cpvf.pairs_rebuilt" if rebuild else "cpvf.pairs_repaired", 1)
        rows, cols = self._remap_pairs(sensors, rows, cols)
        return rows, cols, d2

    def _remap_pairs(self, sensors, rows, cols) -> tuple:
        """Map alive-subset positions back to full-list indices (= ids).

        Identity while the population is intact — ``sensors`` is then the
        whole list, so positional indices already equal sensor ids.
        """
        if len(sensors) == len(self._world.sensors):
            return rows, cols
        ids = np.fromiter(
            (s.sensor_id for s in sensors), dtype=np.intp, count=len(sensors)
        )
        return ids[rows], ids[cols]

    def neighbor_rows(
        self, sensor_ids: Sequence[int]
    ) -> Dict[int, List[int]]:
        """Neighbour lists for a subset of sensors only.

        Produces, for each requested id, the same list
        :meth:`neighbor_table` would contain for it, but touching only the
        requested rows — the batched CPVF path uses it to serve its few
        still-disconnected walkers without materialising the full table.
        """
        self._validate()
        if self._table is not None:
            return {sid: list(self._table.get(sid, ())) for sid in sensor_ids}
        world = self._world
        index = self._spatial_index()
        if index is None:
            table = self._raw_table()
            return {sid: list(table.get(sid, ())) for sid in sensor_ids}
        # The shared index is built over the *alive* subset; candidate
        # indices are positions into that subset, not sensor ids.
        alive = self._alive_sensors()
        rc = world.config.communication_range
        reach = rc + LINK_EPS + _QUERY_SLACK
        # Accept by *squared* distance, exactly like the table build —
        # a sqrt-based predicate can disagree by one ulp at the range
        # boundary.
        limit_sq = (rc + LINK_EPS) ** 2
        out: Dict[int, List[int]] = {}
        for sid in sensor_ids:
            sensor = world.sensors[sid]
            if not sensor.is_alive():
                out[sid] = []
                continue
            pos = sensor.position
            row: List[int] = []
            for i in index.query_radius(pos, reach).tolist():
                other = alive[i]
                if other.sensor_id == sid:
                    continue
                dx = pos.x - other.position.x
                dy = pos.y - other.position.y
                if dx * dx + dy * dy <= limit_sq:
                    row.append(other.sensor_id)
            out[sid] = row
        return out

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
