"""Brute-force radio and uncached world (parity references)."""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Optional, Set

import numpy as np

from repro.network import Radio
from repro.sim import World
from repro.spatial.cache import pairs_from_table


class BruteRadio(Radio):
    """A radio whose tables and point queries always take the brute scans."""

    def neighbor_table(self, sensors) -> Dict[int, List[int]]:
        return self.neighbor_table_bruteforce(sensors)

    def neighbors_of_point(
        self, point, sensors, communication_range, index=None
    ) -> List[int]:
        return self.neighbors_of_point_bruteforce(
            point, sensors, communication_range
        )


class UncachedWorld(World):
    """A world whose queries recompute from scratch on every call.

    Neighbour queries go through the radio (a :class:`BruteRadio` when
    built by :func:`uncached`) over the live sensors, and coverage is the
    library's brute-force ``Field.coverage_fraction`` scan — no
    ``NeighborCache``, no ``IncrementalCoverage``.
    """

    def neighbor_table(self) -> Dict[int, List[int]]:
        return self.radio.neighbor_table(self.alive_sensors())

    def neighbor_pairs(self, extra_radius: float = 0.0, with_d2: bool = False):
        alive = self.alive_sensors()
        rows, cols, d2 = pairs_from_table(
            alive, self.radio.neighbor_table(alive)
        )
        if len(alive) != len(self.sensors):
            # pairs_from_table emits positions into the alive subset; the
            # batched kernel indexes whole-population arrays, so remap to
            # full-list indices (== sensor ids).
            ids = np.fromiter(
                (s.sensor_id for s in alive), dtype=np.intp, count=len(alive)
            )
            rows = ids[rows]
            cols = ids[cols]
        if with_d2:
            return rows, cols, d2
        return rows, cols

    def pairs_maintenance_hint(self, extra_radius: float = 0.0) -> str:
        return "rebuild"

    def pairs_maintenance_last(self) -> Optional[str]:
        return None

    def neighbor_rows(self, sensor_ids) -> Dict[int, List[int]]:
        table = self.radio.neighbor_table(self.alive_sensors())
        return {sid: list(table.get(sid, ())) for sid in sensor_ids}

    def sensors_near_base_station(self) -> List[int]:
        return self.radio.neighbors_of_point(
            self.base_station,
            self.alive_sensors(),
            self.config.communication_range,
        )

    def connected_component_of(self) -> Set[int]:
        return self.radio.connected_component_of(
            self.alive_sensors(),
            self.base_station,
            self.config.communication_range,
        )

    def coverage(self) -> float:
        return self.field.coverage_fraction(
            [s.position for s in self.alive_sensors()],
            self.config.sensing_range,
            self.config.coverage_resolution,
        )

    def network_is_connected(self) -> bool:
        return self.radio.network_is_connected(
            self.alive_sensors(),
            self.base_station,
            self.config.communication_range,
        )


def uncached(world: World) -> UncachedWorld:
    """An :class:`UncachedWorld` over ``world``'s state with a brute radio.

    The sensors, tree, statistics and RNG are shared with ``world``;
    scalar fields (time, period and population counters) are copied.
    """
    state = {f.name: getattr(world, f.name) for f in fields(World) if f.init}
    state["radio"] = BruteRadio(
        world.field, line_of_sight=world.radio.line_of_sight
    )
    return UncachedWorld(**state)
