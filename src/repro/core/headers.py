"""Floor-header registry and coverage-status queries (Section 5.4).

Each floor has a *header node* — the fixed node with the smallest
x coordinate on that floor — which records the locations of the fixed nodes
on its floor in a compact run-length form.  When a sensor needs to know
whether a point beyond its own sensing range is already covered, it first
asks its direct neighbours and otherwise sends a query to the header nodes
of the floors that could contain a covering sensor.

The registry below is the centralised bookkeeping equivalent: it stores the
fixed (and virtual, i.e. place-holding) node positions per floor, answers
point-coverage queries, and reports which floor a node belongs to so the
scheme can account the query / response message costs on the tree.

The coverage and same-floor-neighbour queries are the hot loop of FLOOR's
phase-3 expansion search (every active searcher probes several candidate
points per period), so they scan parallel coordinate arrays of all records,
rebuilt lazily when the records change, with one vectorised squared-distance
test.  :attr:`FloorRegistry.version` counts record changes so that callers
can reuse answers derived from the registry.  Randomized parity tests pin
the scans against an exhaustive per-floor scan (``tests/oracles``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Vec2
from .floors import FloorGeometry

__all__ = ["FloorRegistry", "FloorRecord"]


@dataclass(frozen=True)
class FloorRecord:
    """One fixed (or virtual place-holding) node registered on a floor."""

    node_id: int
    position: Vec2
    virtual: bool = False


@dataclass
class FloorRegistry:
    """Per-floor record of fixed and virtual fixed nodes."""

    floors: FloorGeometry
    _records: Dict[int, Dict[int, FloorRecord]] = field(default_factory=dict)
    #: Bumped each time a record is added or removed.
    version: int = field(default=0, init=False, compare=False)
    #: ``(floor_index, record)`` in store order: floor by floor, each
    #: floor's records in registration order.  ``_xs``/``_ys`` are the
    #: parallel coordinate arrays; all three describe ``_store_version``.
    _store: List[Tuple[int, FloorRecord]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _xs: np.ndarray = field(
        default_factory=lambda: np.empty(0), init=False, repr=False, compare=False
    )
    _ys: np.ndarray = field(
        default_factory=lambda: np.empty(0), init=False, repr=False, compare=False
    )
    _store_version: int = field(default=-1, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node_id: int, position: Vec2, virtual: bool = False) -> int:
        """Register a fixed node (or a virtual place-holder) at ``position``.

        Returns the floor index the node was filed under.  Re-registering an
        id overwrites its previous record (e.g. a virtual place-holder being
        replaced by the real sensor on arrival), even when the new position
        lies on a different floor.
        """
        self.unregister(node_id)
        floor_index = self.floors.floor_index(position.y)
        self._records.setdefault(floor_index, {})[node_id] = FloorRecord(
            node_id=node_id, position=position, virtual=virtual
        )
        self.version += 1
        return floor_index

    def unregister(self, node_id: int) -> None:
        """Remove a node from whatever floor it was registered on."""
        for floor_records in self._records.values():
            if floor_records.pop(node_id, None) is not None:
                self.version += 1

    def promote_virtual(self, node_id: int, position: Vec2) -> None:
        """Replace a virtual place-holder by the real arrived sensor."""
        self.unregister(node_id)
        self.register(node_id, position, virtual=False)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records_on_floor(self, floor_index: int) -> List[FloorRecord]:
        """All records registered on a floor."""
        return list(self._records.get(floor_index, {}).values())

    def all_records(self) -> List[FloorRecord]:
        """All records across all floors."""
        result: List[FloorRecord] = []
        for floor_records in self._records.values():
            result.extend(floor_records.values())
        return result

    def floor_of(self, node_id: int) -> Optional[int]:
        """Floor index a node is registered on (``None`` when absent)."""
        for floor_index, floor_records in self._records.items():
            if node_id in floor_records:
                return floor_index
        return None

    def _hits(self, point: Vec2, radius: float) -> List[int]:
        """Store positions (ascending) of the records within ``radius``.

        One scan over all records with the squared-distance test of
        :meth:`~repro.spatial.index.SpatialIndex.query_radius`.  The store
        is rebuilt when the records changed; restricted to one floor, its
        order equals that floor's dict iteration order, so the queries
        return records in exactly the order the exhaustive scan visits
        them.
        """
        if self._store_version != self.version:
            self._store = [
                (floor_index, record)
                for floor_index, floor_records in self._records.items()
                for record in floor_records.values()
            ]
            self._xs = np.array([r.position.x for _, r in self._store], dtype=float)
            self._ys = np.array([r.position.y for _, r in self._store], dtype=float)
            self._store_version = self.version
        dx = self._xs - float(point.x)
        dy = self._ys - float(point.y)
        return np.flatnonzero(dx * dx + dy * dy <= radius * radius).tolist()

    def is_point_covered(
        self,
        point: Vec2,
        sensing_range: float,
        exclude: Sequence[int] = (),
    ) -> Tuple[bool, List[int]]:
        """Whether ``point`` is covered by any registered node.

        Returns ``(covered, floors_queried)`` where ``floors_queried`` lists
        the floor indices a distributed implementation would have had to ask
        (used by the scheme to account query/response messages).  Nodes in
        ``exclude`` (typically the asking sensor itself) are ignored.
        """
        floors_to_ask = self.floors.floors_possibly_covering(point, sensing_range)
        askable = set(floors_to_ask)
        for i in self._hits(point, sensing_range + 1e-9):
            floor_index, record = self._store[i]
            if record.node_id in exclude or floor_index not in askable:
                continue
            return True, floors_to_ask
        return False, floors_to_ask

    def neighbors_on_floor(
        self, node_id: int, radius: float
    ) -> List[FloorRecord]:
        """Registered nodes on the same floor within ``radius`` of a node."""
        floor_index = self.floor_of(node_id)
        if floor_index is None:
            return []
        me = self._records[floor_index][node_id]
        result: List[FloorRecord] = []
        for i in self._hits(me.position, radius + 1e-9):
            hit_floor, record = self._store[i]
            if hit_floor == floor_index and record.node_id != node_id:
                result.append(record)
        return result

    def count(self, include_virtual: bool = True) -> int:
        """Number of registered nodes."""
        return sum(
            1
            for r in self.all_records()
            if include_virtual or not r.virtual
        )
