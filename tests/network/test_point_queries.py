"""Parity tests: indexed base-station adjacency vs the brute reference."""

import random

import pytest

from repro.field import Field, two_obstacle_field
from repro.geometry import Vec2
from repro.sim import SimulationConfig, World
from tests.oracles import BruteRadio, uncached

FIELD_SIZE = 300.0


def make_world(positions, field, rc, base_station):
    config = SimulationConfig(
        sensor_count=len(positions),
        communication_range=rc,
        sensing_range=25.0,
        duration=10.0,
        seed=1,
        base_station=base_station,
    )
    return World.create(config, field, initial_positions=positions)


def free_positions(rng, n, field):
    positions = []
    while len(positions) < n:
        p = Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        if field.is_free(p):
            positions.append(p)
    return positions


@pytest.mark.parametrize("trial", range(8))
def test_indexed_point_query_matches_bruteforce(trial):
    rng = random.Random(1000 + trial)
    field = two_obstacle_field(FIELD_SIZE) if trial % 2 else Field(FIELD_SIZE, FIELD_SIZE)
    positions = free_positions(rng, rng.randint(8, 60), field)
    rc = rng.uniform(20.0, 80.0)
    for _ in range(5):
        point = Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        world = make_world(positions, field, rc, point)
        brute = BruteRadio(rc).neighbors_of_point(point, world.sensors)
        assert world.sensors_near_base_station() == brute


@pytest.mark.parametrize("trial", range(8))
def test_point_query_skips_failed_sensors(trial):
    rng = random.Random(1500 + trial)
    field = two_obstacle_field(FIELD_SIZE) if trial % 2 else Field(FIELD_SIZE, FIELD_SIZE)
    positions = free_positions(rng, rng.randint(8, 60), field)
    rc = rng.uniform(20.0, 80.0)
    for _ in range(5):
        point = Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        world = make_world(positions, field, rc, point)
        # Fail the sensors the base station hears first: a stale answer
        # would still list them.
        near = world.sensors_near_base_station()
        for sid in near[: max(1, len(near) // 2)]:
            world.remove_sensor(sid)
        world.add_sensor(point)
        fast = world.sensors_near_base_station()
        assert fast == uncached(world).sensors_near_base_station()
        assert len(world.sensors) - 1 in fast


def test_small_population_agrees():
    field = Field(FIELD_SIZE, FIELD_SIZE)
    positions = free_positions(random.Random(7), 5, field)
    point = Vec2(150.0, 150.0)
    world = make_world(positions, field, 100.0, point)
    assert world.sensors_near_base_station() == BruteRadio(
        100.0
    ).neighbors_of_point(point, world.sensors)


def test_boundary_distance_is_inclusive_on_both_paths():
    field = Field(FIELD_SIZE, FIELD_SIZE)
    positions = [Vec2(10.0 * (i + 1), 0.0) for i in range(10)]
    point = Vec2(0.0, 0.0)
    world = make_world(positions, field, 40.0, point)
    # Sensor 3 sits exactly at distance 40; both paths must include it.
    fast = world.sensors_near_base_station()
    assert fast == BruteRadio(40.0).neighbors_of_point(point, world.sensors)
    assert 3 in fast and 4 not in fast
