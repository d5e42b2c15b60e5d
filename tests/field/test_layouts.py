"""Tests for the canonical experiment layouts."""

import random

import pytest

from repro.field import (
    CLUSTER_SIZE,
    FIELD_SIZE,
    clustered_initial_positions,
    corridor_field,
    obstacle_free_field,
    two_obstacle_field,
    uniform_initial_positions,
)
from repro.scenarios import ScenarioValidator


def free_space_connected(field, resolution=25.0):
    report = ScenarioValidator(resolution=resolution).validate_field(field)
    return report.free_space_connected


class TestCanonicalFields:
    def test_obstacle_free_dimensions(self):
        field = obstacle_free_field()
        assert field.width == FIELD_SIZE
        assert field.height == FIELD_SIZE
        assert field.obstacles == []

    def test_two_obstacle_field_has_two_obstacles(self):
        field = two_obstacle_field()
        assert len(field.obstacles) == 2

    def test_two_obstacle_field_remains_connected(self):
        assert free_space_connected(two_obstacle_field())

    def test_two_obstacle_field_scales(self):
        field = two_obstacle_field(500.0)
        assert field.width == 500.0
        for obstacle in field.obstacles:
            xmin, ymin, xmax, ymax = obstacle.bounding_box()
            assert 0 <= xmin <= xmax <= 500
            assert 0 <= ymin <= ymax <= 500

    def test_corridor_field_connected(self):
        assert free_space_connected(corridor_field())

    def test_corridor_field_has_two_walls(self):
        assert len(corridor_field().obstacles) == 2


class TestInitialDistributions:
    def test_clustered_positions_inside_cluster(self):
        rng = random.Random(1)
        positions = clustered_initial_positions(100, rng)
        assert len(positions) == 100
        for p in positions:
            assert 0 <= p.x <= CLUSTER_SIZE
            assert 0 <= p.y <= CLUSTER_SIZE

    def test_clustered_positions_avoid_obstacles(self):
        rng = random.Random(1)
        field = two_obstacle_field()
        positions = clustered_initial_positions(200, rng, field=field)
        assert all(field.is_free(p) for p in positions)

    def test_uniform_positions_span_field(self):
        rng = random.Random(1)
        field = obstacle_free_field()
        positions = uniform_initial_positions(300, rng, field)
        assert len(positions) == 300
        assert any(p.x > CLUSTER_SIZE for p in positions)
        assert any(p.y > CLUSTER_SIZE for p in positions)

    def test_uniform_positions_avoid_obstacles(self):
        rng = random.Random(3)
        field = two_obstacle_field()
        positions = uniform_initial_positions(200, rng, field)
        assert all(field.is_free(p) for p in positions)

    def test_deterministic_given_seed(self):
        a = clustered_initial_positions(20, random.Random(7))
        b = clustered_initial_positions(20, random.Random(7))
        assert a == b
