"""FLOOR reference: an exhaustive floor-registry scan."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.headers import FloorRecord, FloorRegistry
from repro.geometry import Vec2


class ExhaustiveFloorRegistry(FloorRegistry):
    """A floor registry that answers its queries by scanning every record."""

    def is_point_covered(
        self,
        point: Vec2,
        sensing_range: float,
        exclude: Sequence[int] = (),
    ) -> Tuple[bool, List[int]]:
        excluded = set(exclude)
        floors_to_ask = self.floors.floors_possibly_covering(point, sensing_range)
        for floor_index in floors_to_ask:
            for record in self.records_on_floor(floor_index):
                if record.node_id in excluded:
                    continue
                if record.position.distance_to(point) <= sensing_range + 1e-9:
                    return True, floors_to_ask
        return False, floors_to_ask

    def neighbors_on_floor(self, node_id: int, radius: float) -> List[FloorRecord]:
        floor_index = self.floor_of(node_id)
        if floor_index is None:
            return []
        records = self.records_on_floor(floor_index)
        me = next((r for r in records if r.node_id == node_id), None)
        if me is None:
            return []
        return [
            r
            for r in records
            if r.node_id != node_id
            and r.position.distance_to(me.position) <= radius + 1e-9
        ]
