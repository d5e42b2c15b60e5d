"""Parity tests: indexed point-neighbor queries vs the brute reference."""

import random

import pytest

from repro.field import Field, two_obstacle_field
from repro.geometry import Vec2
from repro.mobility import MotionModel
from repro.network import Radio
from repro.sensors import Sensor

FIELD_SIZE = 300.0


def make_sensors(rng, n, field, rc=40.0):
    sensors = []
    while len(sensors) < n:
        p = Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        if not field.is_free(p):
            continue
        sensors.append(
            Sensor(
                sensor_id=len(sensors),
                motion=MotionModel(position=p, max_speed=2.0, period=1.0),
                communication_range=rc,
                sensing_range=25.0,
            )
        )
    return sensors


@pytest.mark.parametrize("trial", range(8))
@pytest.mark.parametrize("line_of_sight", [False, True])
def test_indexed_point_query_matches_bruteforce(trial, line_of_sight):
    rng = random.Random(1000 + trial)
    field = two_obstacle_field(FIELD_SIZE) if trial % 2 else Field(FIELD_SIZE, FIELD_SIZE)
    radio = Radio(field, line_of_sight=line_of_sight)
    sensors = make_sensors(rng, rng.randint(8, 60), field)
    rc = rng.uniform(20.0, 80.0)
    for _ in range(5):
        point = Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        fast = radio.neighbors_of_point(point, sensors, rc)
        brute = radio.neighbors_of_point_bruteforce(point, sensors, rc)
        assert fast == brute


def test_small_population_uses_brute_path_and_agrees():
    field = Field(FIELD_SIZE, FIELD_SIZE)
    radio = Radio(field)
    rng = random.Random(7)
    sensors = make_sensors(rng, 5, field)  # below the index threshold
    point = Vec2(150.0, 150.0)
    assert radio.neighbors_of_point(
        point, sensors, 100.0
    ) == radio.neighbors_of_point_bruteforce(point, sensors, 100.0)


def test_boundary_distance_is_inclusive_on_both_paths():
    field = Field(FIELD_SIZE, FIELD_SIZE)
    radio = Radio(field)
    sensors = [
        Sensor(
            sensor_id=i,
            motion=MotionModel(
                position=Vec2(10.0 * (i + 1), 0.0), max_speed=2.0, period=1.0
            ),
            communication_range=40.0,
            sensing_range=25.0,
        )
        for i in range(10)
    ]
    point = Vec2(0.0, 0.0)
    # Sensor 3 sits exactly at distance 40; both paths must include it.
    fast = radio.neighbors_of_point(point, sensors, 40.0)
    brute = radio.neighbors_of_point_bruteforce(point, sensors, 40.0)
    assert fast == brute
    assert 3 in fast and 4 not in fast
