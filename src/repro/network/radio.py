"""Unit-disk radio model and neighbour tables.

The paper models communication as an isotropic unit disk of radius ``rc``:
two sensors are neighbours exactly when their distance is at most ``rc``.
Obstacles block *movement* and *sensing* but the paper does not model radio
shadowing, so by default neither do we; an optional flag enables line-of-
sight blocking for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from ..field import Field
from ..geometry import Segment, Vec2
from ..sensors import Sensor
from ..spatial import SpatialIndex, pack_positions

__all__ = ["Radio", "LINK_EPS"]

#: Link tolerance used by every range comparison (matches ``link_exists``).
#: Public because protocol layers that read *stale* neighbour tables (see
#: ``repro.network.conditions``) must revalidate entries against live
#: positions with exactly this tolerance before acting on them.
LINK_EPS = 1e-9

# Backwards-compatible private alias (internal call sites predate export).
_LINK_EPS = LINK_EPS


@dataclass
class Radio:
    """Computes neighbour relations among sensors (plus the base station).

    Parameters
    ----------
    field:
        The deployment field (used only when ``line_of_sight`` is enabled).
    line_of_sight:
        When ``True``, two nodes are neighbours only if the straight segment
        between them does not cross an obstacle.  The paper's experiments use
        the plain unit-disk model (``False``).

    Neighbour tables are computed through a
    :class:`~repro.spatial.SpatialIndex`; populations under 8 sensors take
    the dense brute-force scan, which produces identical tables (parity is
    enforced by ``tests/spatial``).
    """

    field: Field
    line_of_sight: bool = False

    # ------------------------------------------------------------------
    # Pairwise link predicate
    # ------------------------------------------------------------------
    def link_exists(self, a: Vec2, b: Vec2, communication_range: float) -> bool:
        """Whether two positions can communicate directly."""
        if a.distance_to(b) > communication_range + 1e-9:
            return False
        if self.line_of_sight and self.field.segment_blocked(Segment(a, b)):
            return False
        return True

    # ------------------------------------------------------------------
    # Neighbour tables
    # ------------------------------------------------------------------
    def neighbor_table(self, sensors: Sequence[Sensor]) -> Dict[int, List[int]]:
        """Neighbour lists keyed by sensor id.

        The per-sensor communication ranges may differ (the paper uses a
        common ``rc`` but the library does not require it).  Dispatches to
        the spatial-index fast path unless the population is too small for
        it to pay off.
        """
        if len(sensors) < 8:
            return self.neighbor_table_bruteforce(sensors)
        return self.neighbor_table_indexed(sensors)

    def neighbor_table_bruteforce(
        self, sensors: Sequence[Sensor]
    ) -> Dict[int, List[int]]:
        """Dense-matrix neighbour table (parity reference / small-n path).

        Compares *squared* distances — no ``sqrt`` over the full matrix —
        which keeps the accepted set identical to the indexed path.
        """
        ids = [s.sensor_id for s in sensors]
        if not ids:
            return {}
        xs = np.array([s.position.x for s in sensors])
        ys = np.array([s.position.y for s in sensors])
        rcs = np.array([s.communication_range for s in sensors]) + _LINK_EPS
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        dist_sq = dx * dx + dy * dy
        rc_sq = rcs * rcs
        table: Dict[int, List[int]] = {i: [] for i in ids}
        n = len(sensors)
        for i in range(n):
            within = np.flatnonzero(dist_sq[i] <= rc_sq[i])
            for j in within:
                if j == i:
                    continue
                if self.line_of_sight and self.field.segment_blocked(
                    Segment(sensors[i].position, sensors[j].position)
                ):
                    continue
                table[ids[i]].append(ids[int(j)])
        return table

    def neighbor_table_indexed(
        self,
        sensors: Sequence[Sensor],
        index: Optional[SpatialIndex] = None,
    ) -> Dict[int, List[int]]:
        """Neighbour table computed through a :class:`SpatialIndex`.

        ``index`` may be a prebuilt index over the sensors' current
        positions (the :class:`~repro.spatial.NeighborCache` shares one per
        epoch); when omitted a throwaway index is built.
        """
        ids = [s.sensor_id for s in sensors]
        n = len(sensors)
        if n < 2:
            return {i: [] for i in ids}
        rc_list = [s.communication_range for s in sensors]
        max_range = max(rc_list) + _LINK_EPS
        if index is None:
            index = SpatialIndex(max(max_range, _LINK_EPS) * 1.001).build(
                pack_positions(sensors)
            )
        rows, cols, dist_sq = index.neighbor_pairs_directed(max_range)
        if min(rc_list) != max(rc_list):
            # Heterogeneous ranges: j is a neighbour of i iff d <= rc_i.
            rcs = np.fromiter(rc_list, dtype=float, count=n) + _LINK_EPS
            keep = dist_sq <= rcs[rows] * rcs[rows]
            rows, cols = rows[keep], cols[keep]
        if self.line_of_sight:
            table: Dict[int, List[int]] = {i: [] for i in ids}
            blocked: Dict[tuple, bool] = {}
            for i, j in zip(rows.tolist(), cols.tolist()):
                key = (i, j) if i < j else (j, i)
                hit = blocked.get(key)
                if hit is None:
                    hit = self.field.segment_blocked(
                        Segment(sensors[i].position, sensors[j].position)
                    )
                    blocked[key] = hit
                if not hit:
                    table[ids[i]].append(ids[j])
            return table
        # rows is sorted, cols ascending within each row: slice the packed
        # neighbour list per sensor instead of appending pair by pair.
        flat = np.asarray(ids, dtype=np.intp)[cols].tolist()
        bounds = np.cumsum(np.bincount(rows, minlength=n)).tolist()
        table = {}
        lo = 0
        for sensor_id, hi in zip(ids, bounds):
            table[sensor_id] = flat[lo:hi]
            lo = hi
        return table

    def neighbors_of_point(
        self,
        point: Vec2,
        sensors: Iterable[Sensor],
        communication_range: float,
        index: Optional[SpatialIndex] = None,
    ) -> List[int]:
        """IDs of sensors within ``communication_range`` of a point.

        Used for base-station adjacency (the base station is a point, not a
        :class:`Sensor`).  Large populations are served through a
        :class:`~repro.spatial.SpatialIndex` (pass ``index`` to reuse one
        already built over the *same* sensor sequence); the brute scan
        below remains the small-``n`` path and the parity reference.
        Candidate indices are sorted, so the result order matches the
        brute scan's input order.
        """
        sensor_list = sensors if isinstance(sensors, list) else list(sensors)
        if index is None:
            if len(sensor_list) < 8:
                return self.neighbors_of_point_bruteforce(
                    point, sensor_list, communication_range
                )
            cell = max(communication_range, _LINK_EPS) * 1.001
            index = SpatialIndex(cell).build(pack_positions(sensor_list))
        candidates = np.sort(
            index.query_radius(point, communication_range + 2.0 * _LINK_EPS)
        )
        return [
            sensor_list[i].sensor_id
            for i in candidates.tolist()
            if self.link_exists(
                point, sensor_list[i].position, communication_range
            )
        ]

    def neighbors_of_point_bruteforce(
        self,
        point: Vec2,
        sensors: Iterable[Sensor],
        communication_range: float,
    ) -> List[int]:
        """Reference linear scan for :meth:`neighbors_of_point`."""
        result: List[int] = []
        for s in sensors:
            if self.link_exists(point, s.position, communication_range):
                result.append(s.sensor_id)
        return result

    # ------------------------------------------------------------------
    # Whole-network connectivity
    # ------------------------------------------------------------------
    def connected_component_of(
        self,
        sensors: Sequence[Sensor],
        base_station: Vec2,
        communication_range: float,
        table: Optional[Dict[int, List[int]]] = None,
        base_neighbors: Optional[Sequence[int]] = None,
    ) -> Set[int]:
        """Sensors reachable from the base station via multi-hop links.

        ``table`` and ``base_neighbors`` let callers (the neighbor cache)
        reuse structures already computed for the same positions instead of
        rebuilding the neighbour table a second time.
        """
        if table is None:
            table = self.neighbor_table(sensors)
        if base_neighbors is None:
            base_neighbors = self.neighbors_of_point(
                base_station, sensors, communication_range
            )
        frontier = list(base_neighbors)
        reached: Set[int] = set(frontier)
        while frontier:
            current = frontier.pop()
            for nxt in table.get(current, []):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        return reached

    def network_is_connected(
        self,
        sensors: Sequence[Sensor],
        base_station: Vec2,
        communication_range: float,
    ) -> bool:
        """Whether every sensor has a multi-hop route to the base station."""
        component = self.connected_component_of(
            sensors, base_station, communication_range
        )
        return len(component) == len(sensors)
