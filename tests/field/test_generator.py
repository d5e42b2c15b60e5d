"""Tests for the random-obstacle field generator (Fig 13 workload)."""

import random

import pytest

from repro.field import RandomObstacleConfig
from repro.field import generate_random_obstacle_field as _generate
from repro.geometry import Vec2
from repro.scenarios import ScenarioValidator


def generate_random_obstacle_field(rng, config):
    """The generator under the free-space check the Fig 13 layout uses."""
    validator = ScenarioValidator(
        min_free_fraction=0.0, resolution=config.connectivity_resolution
    )
    return _generate(rng, config, validator=validator.accepts)


class TestGenerator:
    def test_obstacle_count_in_range(self):
        rng = random.Random(1)
        config = RandomObstacleConfig(field_size=500.0, connectivity_resolution=25.0)
        for _ in range(5):
            field = generate_random_obstacle_field(rng, config)
            assert 1 <= len(field.obstacles) <= 4

    def test_free_space_stays_connected(self):
        rng = random.Random(2)
        config = RandomObstacleConfig(field_size=500.0, connectivity_resolution=25.0)
        for _ in range(5):
            field = generate_random_obstacle_field(rng, config)
            report = ScenarioValidator(resolution=25.0).validate_field(field)
            assert report.free_space_connected

    def test_base_station_stays_clear(self):
        rng = random.Random(3)
        config = RandomObstacleConfig(
            field_size=500.0, keep_clear_radius=40.0, connectivity_resolution=25.0
        )
        for _ in range(5):
            field = generate_random_obstacle_field(rng, config)
            assert field.is_free(Vec2(0.0, 0.0))
            for obstacle in field.obstacles:
                assert obstacle.distance_to(Vec2(0.0, 0.0)) >= 40.0 - 1e-9

    def test_obstacles_within_field(self):
        rng = random.Random(4)
        config = RandomObstacleConfig(field_size=300.0, max_side=120.0, connectivity_resolution=20.0)
        field = generate_random_obstacle_field(rng, config)
        for obstacle in field.obstacles:
            xmin, ymin, xmax, ymax = obstacle.bounding_box()
            assert 0 <= xmin <= xmax <= 300
            assert 0 <= ymin <= ymax <= 300

    def test_side_lengths_respect_config(self):
        rng = random.Random(5)
        config = RandomObstacleConfig(
            field_size=500.0, min_side=50.0, max_side=100.0, connectivity_resolution=25.0
        )
        field = generate_random_obstacle_field(rng, config)
        for obstacle in field.obstacles:
            xmin, ymin, xmax, ymax = obstacle.bounding_box()
            assert 50.0 - 1e-6 <= xmax - xmin <= 100.0 + 1e-6
            assert 50.0 - 1e-6 <= ymax - ymin <= 100.0 + 1e-6

    def test_reproducible_with_same_seed(self):
        config = RandomObstacleConfig(field_size=400.0, connectivity_resolution=25.0)
        field_a = generate_random_obstacle_field(random.Random(9), config)
        field_b = generate_random_obstacle_field(random.Random(9), config)
        assert len(field_a.obstacles) == len(field_b.obstacles)
        for oa, ob in zip(field_a.obstacles, field_b.obstacles):
            assert oa.bounding_box() == pytest.approx(ob.bounding_box())
