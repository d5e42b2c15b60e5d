"""The whole neighbour table on both sides of the dense-table cut.

Up to ``DENSE_TABLE_MAX`` live sensors ``NeighborSnapshot.table()`` is
one dense block over the captured positions; above it, one spatial-index
build.  At populations on both sides of the cut, with coincident sensors
and pairs exactly ``rc + LINK_EPS`` apart, the table must equal (``==``)
the seed table (``seed_neighbor_table``), the brute-force oracle and the
other path forced on the same snapshot, and so must the base station's
neighbours and connected component.
"""

import math
import random

import pytest

from repro.field import Field
from repro.geometry import Vec2
from repro.network import LINK_EPS
from repro.sim import SimulationConfig, World
from repro.spatial import cache
from repro.spatial.cache import DENSE_TABLE_MAX, NeighborSnapshot
from tests.oracles import BruteRadio, seed_neighbor_table, uncached

FIELD = 300.0
RC = 40.0


def build_world(positions):
    config = SimulationConfig(
        sensor_count=len(positions),
        communication_range=RC,
        sensing_range=20.0,
        duration=10.0,
        coverage_resolution=25.0,
        seed=1,
    )
    return World.create(config, Field(FIELD, FIELD), initial_positions=positions)


def layout(n, seed):
    """``n`` positions: a few pairs exactly ``rc + LINK_EPS`` apart (and
    one ulp further) where ``dx`` is exact, coincident sensors, and
    random positions for the rest."""
    limit = RC + LINK_EPS
    beyond = math.nextafter(limit, math.inf)
    rng = random.Random(seed)
    positions = [
        Vec2(0.0, 0.0),
        Vec2(limit, 0.0),
        Vec2(0.0, limit),
        Vec2(0.0, beyond),
        Vec2(beyond, 0.0),
        Vec2(0.0, 0.0),
    ][:n]
    while len(positions) < n:
        p = Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD))
        positions.append(p)
        if len(positions) < n and rng.random() < 0.1:
            positions.append(p)  # a coincident twin
    return positions


def snapshot_answers(world, dense_max):
    """Table, base-station neighbours and component of a fresh snapshot
    built with the cut at ``dense_max``."""
    saved = cache.DENSE_TABLE_MAX
    cache.DENSE_TABLE_MAX = dense_max
    try:
        snapshot = NeighborSnapshot(world)
        answers = (
            snapshot.table(),
            snapshot.base_station_neighbors(),
            snapshot.connected_component(),
        )
        built_index = snapshot._index is not None
    finally:
        cache.DENSE_TABLE_MAX = saved
    return answers, built_index


@pytest.mark.parametrize(
    "n",
    [2, 6, 40, DENSE_TABLE_MAX - 1, DENSE_TABLE_MAX, DENSE_TABLE_MAX + 1, 240],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_table_matches_the_seed_table_on_both_sides_of_the_cut(n, seed):
    world = build_world(layout(n, seed))
    sensors = world.alive_sensors()
    table = world.neighbor_table()
    assert (world.neighbor_snapshot()._index is None) == (n <= DENSE_TABLE_MAX)
    assert table == seed_neighbor_table(sensors, RC)
    assert table == BruteRadio(RC).neighbor_table(sensors)
    if n >= 4:
        assert 1 in table[0] and 2 in table[0] and 3 not in table[0]
    if n >= 6:
        assert 5 in table[0] and 0 in table[5]  # coincident sensors link

    dense, dense_indexed = snapshot_answers(world, n)
    indexed, index_indexed = snapshot_answers(world, n - 1)
    assert not dense_indexed and index_indexed
    assert dense == indexed
    oracle = uncached(world)
    assert dense == (
        oracle.neighbor_table(),
        oracle.sensors_near_base_station(),
        oracle.connected_component_of(),
    )


def test_dead_sensors_leave_the_dense_table():
    world = build_world(layout(DENSE_TABLE_MAX + 5, 3))
    for sid in range(10):
        world.remove_sensor(sid)
    # Fewer live sensors than the cut: the dense path serves the table.
    table = world.neighbor_table()
    assert world.neighbor_snapshot()._index is None
    assert table == seed_neighbor_table(world.alive_sensors(), RC)
    assert set(table) == {s.sensor_id for s in world.alive_sensors()}
