"""Neighbour rows read from a snapshot without building the whole table.

``NeighborSnapshot.rows`` scans the captured positions with the table's
own predicate, so every row must equal (``==``) the full table's row for
the same sensor — at random layouts, at pairs exactly ``rc + LINK_EPS``
apart, with dead and injected sensors, and at n = 0, 1 and 2 — and must
stay equal to the brute-force oracle's.  The scalar loop that serves a
few owners and the block that serves more agree there too.  Rows are
copies, and reading them never builds the table.
"""

import math
import random

import pytest

from repro.field import Field
from repro.geometry import Vec2
from repro.network import LINK_EPS
from repro.sim import SimulationConfig, World
from repro.spatial import cache
from tests.oracles import BruteRadio, uncached

FIELD = 300.0
RC = 40.0


def build_world(positions, rc=RC):
    config = SimulationConfig(
        sensor_count=len(positions),
        communication_range=rc,
        sensing_range=20.0,
        duration=10.0,
        coverage_resolution=25.0,
        seed=1,
    )
    return World.create(config, Field(FIELD, FIELD), initial_positions=positions)


def random_positions(rng, n):
    return [Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD)) for _ in range(n)]


def assert_rows_match_table(world):
    """Rows of every id (live, dead, unknown) from a fresh snapshot's scan,
    from the built table and from the brute-force oracle agree."""
    asked = list(range(len(world.sensors) + 2))
    rng = random.Random(len(asked))
    rng.shuffle(asked)
    scanned = world.neighbor_snapshot().rows(asked)
    assert world.neighbor_snapshot()._table is None
    table = world.neighbor_table()
    expected = {sid: table[sid] for sid in asked if sid in table}
    assert scanned == expected
    assert list(scanned) == [sid for sid in asked if sid in table]
    assert world.neighbor_snapshot().rows(asked) == expected
    assert uncached(world).neighbor_snapshot().rows(asked) == expected
    brute = BruteRadio(world.config.communication_range)
    assert table == brute.neighbor_table(world.alive_sensors())


@pytest.mark.parametrize("trial", range(12))
def test_rows_equal_table_rows_on_random_layouts(trial):
    rng = random.Random(7000 + trial)
    world = build_world(random_positions(rng, rng.randint(3, 90)))
    assert_rows_match_table(world)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_rows_at_tiny_populations(n):
    world = build_world([Vec2(10.0 + 20.0 * i, 10.0) for i in range(n)])
    assert_rows_match_table(world)
    expected = {0: [1], 1: [0]} if n == 2 else {i: [] for i in range(n)}
    assert world.neighbor_snapshot().rows([0, 1, 5]) == expected


def test_rows_at_exactly_the_link_distance():
    limit = RC + LINK_EPS
    beyond = math.nextafter(limit, math.inf)
    # Sensor 1 sits exactly ``rc + LINK_EPS`` from sensor 0 (dx is exact
    # at the origin); sensor 2 one ulp further.  The same pattern away
    # from the origin, where dx rounds, must still agree with the table.
    positions = [
        Vec2(0.0, 0.0),
        Vec2(limit, 0.0),
        Vec2(0.0, beyond),
        Vec2(100.0, 100.0),
        Vec2(100.0 + limit, 100.0),
        Vec2(100.0, 100.0 + limit),
        Vec2(100.0 + beyond, 100.0 + beyond),
    ]
    world = build_world(positions)
    rows = world.neighbor_snapshot().rows([0, 1, 2])
    assert 1 in rows[0] and 2 not in rows[0]
    assert_rows_match_table(world)


@pytest.mark.parametrize("trial", range(6))
def test_rows_with_dead_and_injected_sensors(trial):
    rng = random.Random(8000 + trial)
    world = build_world(random_positions(rng, 40))
    for sid in rng.sample(range(40), 8):
        world.remove_sensor(sid)
    for _ in range(5):
        world.add_sensor(Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD)))
    assert_rows_match_table(world)
    dead = [s.sensor_id for s in world.sensors if not s.is_alive()]
    assert world.neighbor_snapshot().rows(dead) == {}


def test_returned_rows_are_private_copies():
    world = build_world([Vec2(0.0, 0.0), Vec2(5.0, 0.0), Vec2(8.0, 0.0)])
    rows = world.neighbor_snapshot().rows([0])
    rows[0].append(99)
    assert world.neighbor_snapshot().rows([0]) == {0: [1, 2]}
    table = world.neighbor_table()
    table[0].append(98)
    assert world.neighbor_snapshot().rows([0]) == {0: [1, 2]}
    assert world.neighbor_table()[0] == [1, 2]


def test_snapshot_keeps_its_capture_time_positions():
    world = build_world([Vec2(0.0, 0.0), Vec2(5.0, 0.0), Vec2(100.0, 0.0)])
    snapshot = world.neighbor_snapshot()
    world.sensor(2).motion.relocate(Vec2(9.0, 0.0), "test")
    assert snapshot.rows([2]) == {2: []}
    assert world.neighbor_snapshot().rows([2]) == {2: [0, 1]}
    assert world.neighbor_snapshot() is not snapshot


def _rows_with_cut(snapshot, asked, max_tests):
    saved = cache.SCALAR_ROWS_MAX_TESTS
    cache.SCALAR_ROWS_MAX_TESTS = max_tests
    try:
        return snapshot.rows(asked)
    finally:
        cache.SCALAR_ROWS_MAX_TESTS = saved


@pytest.mark.parametrize("trial", range(6))
def test_scalar_and_block_rows_agree(trial):
    # Pairs exactly ``rc + LINK_EPS`` apart (and one ulp further), at and
    # away from the origin, among random sensors.
    limit = RC + LINK_EPS
    beyond = math.nextafter(limit, math.inf)
    rng = random.Random(9000 + trial)
    positions = [
        Vec2(0.0, 0.0),
        Vec2(limit, 0.0),
        Vec2(0.0, beyond),
        Vec2(100.0, 100.0),
        Vec2(100.0 + limit, 100.0),
        Vec2(100.0 + beyond, 100.0 + beyond),
    ] + random_positions(rng, rng.randint(0, 60))
    world = build_world(positions)
    world.remove_sensor(rng.randrange(len(positions)))
    snapshot = world.neighbor_snapshot()
    table = world.neighbor_table()
    for k in (1, 2, 3, len(positions)):
        asked = rng.sample(range(len(positions) + 1), min(k, len(positions)))
        scalar = _rows_with_cut(snapshot, asked, 10**9)
        block = _rows_with_cut(snapshot, asked, -1)
        assert scalar == block
        assert list(scalar) == list(block)
        assert scalar == {sid: table[sid] for sid in asked if sid in table}


def test_rows_switch_paths_at_the_cut():
    rng = random.Random(12)
    world = build_world(random_positions(rng, 40))
    snapshot = world.neighbor_snapshot()
    count = len(snapshot.ids)
    owners = cache.SCALAR_ROWS_MAX_TESTS // count
    asked = list(range(owners + 1))
    table = world.neighbor_table()
    # The largest scalar ask reads no arrays; one more owner is a block.
    fresh = world.neighbor_snapshot()
    fresh._arrays = None
    assert fresh.rows(asked[:owners]) == {sid: table[sid] for sid in asked[:owners]}
    assert fresh._arrays is None
    assert fresh.rows(asked) == {sid: table[sid] for sid in asked}
    assert fresh._arrays is not None


def test_pair_ids_are_the_table_rows_in_id_order():
    rng = random.Random(13)
    world = build_world(random_positions(rng, 50))
    world.remove_sensor(7)
    table = world.neighbor_table()
    rows, cols = world.neighbor_snapshot().pair_ids()
    assert rows.tolist() == [sid for sid in sorted(table) for _ in table[sid]]
    assert cols.tolist() == [nb for sid in sorted(table) for nb in table[sid]]
