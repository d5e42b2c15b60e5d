"""Tests for the Fig 13 ``random-obstacles`` layout."""

import pytest

from repro.api import layout_registry
from repro.geometry import Vec2
from repro.scenarios import ScenarioValidator

#: The paper's Fig 13 draw (sides 80-400 m, 60 m clear of the base station).
FIG13_SIDES = {"min_side": 80.0, "max_side": 400.0, "keep_clear_radius": 60.0}


def random_obstacle_field(size, seed, **params):
    return layout_registry.get("random-obstacles")(size, seed=seed, **params)


class TestRandomObstacles:
    def test_obstacle_count_in_range(self):
        for seed in range(1, 6):
            field = random_obstacle_field(
                500.0, seed, connectivity_resolution=25.0, **FIG13_SIDES
            )
            assert 1 <= len(field.obstacles) <= 4

    def test_free_space_stays_connected(self):
        for seed in range(6, 11):
            field = random_obstacle_field(
                500.0, seed, connectivity_resolution=25.0, **FIG13_SIDES
            )
            report = ScenarioValidator(resolution=25.0).validate_field(field)
            assert report.free_space_connected

    def test_base_station_stays_clear(self):
        for seed in range(11, 16):
            field = random_obstacle_field(
                500.0,
                seed,
                min_side=80.0,
                max_side=400.0,
                keep_clear_radius=40.0,
                connectivity_resolution=25.0,
            )
            assert field.is_free(Vec2(0.0, 0.0))
            for obstacle in field.obstacles:
                assert obstacle.distance_to(Vec2(0.0, 0.0)) >= 40.0 - 1e-9

    def test_obstacles_within_field(self):
        field = random_obstacle_field(
            300.0,
            4,
            min_side=80.0,
            max_side=120.0,
            keep_clear_radius=60.0,
            connectivity_resolution=20.0,
        )
        for obstacle in field.obstacles:
            xmin, ymin, xmax, ymax = obstacle.bounding_box()
            assert 0 <= xmin <= xmax <= 300
            assert 0 <= ymin <= ymax <= 300

    def test_side_lengths_respect_config(self):
        field = random_obstacle_field(
            500.0,
            5,
            min_side=50.0,
            max_side=100.0,
            keep_clear_radius=60.0,
            connectivity_resolution=25.0,
        )
        for obstacle in field.obstacles:
            xmin, ymin, xmax, ymax = obstacle.bounding_box()
            assert 50.0 - 1e-6 <= xmax - xmin <= 100.0 + 1e-6
            assert 50.0 - 1e-6 <= ymax - ymin <= 100.0 + 1e-6

    def test_reproducible_with_same_seed(self):
        field_a = random_obstacle_field(400.0, 9, connectivity_resolution=25.0)
        field_b = random_obstacle_field(400.0, 9, connectivity_resolution=25.0)
        assert len(field_a.obstacles) == len(field_b.obstacles)
        for oa, ob in zip(field_a.obstacles, field_b.obstacles):
            assert oa.bounding_box() == pytest.approx(ob.bounding_box())

    def test_unclearable_base_station_raises(self):
        # No rectangle inside a 100 m field keeps 1 km from the origin.
        with pytest.raises(RuntimeError, match="clears the base station"):
            random_obstacle_field(100.0, 1, keep_clear_radius=1000.0)
