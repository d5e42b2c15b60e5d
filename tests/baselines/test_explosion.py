"""Tests for the explosion dispersal step."""

import random

import pytest

from repro.assignment import minimum_distance_matching
from repro.baselines import explode
from repro.field import clustered_initial_positions, obstacle_free_field
from repro.geometry import Vec2


class TestExplosion:
    def test_targets_cover_the_field(self):
        field = obstacle_free_field(500.0)
        rng = random.Random(1)
        initial = clustered_initial_positions(40, rng, cluster_size=250.0, field=field)
        result = explode(initial, field, rng)
        assert len(result.positions) == 40
        assert any(p.x > 250 or p.y > 250 for p in result.positions)
        assert all(field.is_free(p) for p in result.positions)

    def test_distance_accounting(self):
        field = obstacle_free_field(500.0)
        rng = random.Random(2)
        initial = clustered_initial_positions(15, rng, cluster_size=250.0, field=field)
        result = explode(initial, field, rng)
        assert result.per_sensor_distance == [
            start.distance_to(end) for start, end in zip(initial, result.positions)
        ]

    def test_explicit_targets_are_respected(self):
        field = obstacle_free_field(500.0)
        rng = random.Random(3)
        initial = [Vec2(10, 10), Vec2(20, 20)]
        targets = [Vec2(400, 400), Vec2(30, 30)]
        result = explode(initial, field, rng, target_positions=targets)
        assert sorted(p.as_tuple() for p in result.positions) == sorted(
            t.as_tuple() for t in targets
        )

    def test_assignment_is_minimum_cost(self):
        field = obstacle_free_field(500.0)
        rng = random.Random(4)
        initial = [Vec2(0, 0), Vec2(100, 0)]
        targets = [Vec2(110, 0), Vec2(10, 0)]
        result = explode(initial, field, rng, target_positions=targets)
        _, optimal = minimum_distance_matching(
            [p.as_tuple() for p in initial], [t.as_tuple() for t in targets]
        )
        assert sum(result.per_sensor_distance) == pytest.approx(optimal)

    def test_target_count_mismatch_rejected(self):
        field = obstacle_free_field(500.0)
        with pytest.raises(ValueError):
            explode([Vec2(0, 0)], field, random.Random(0), target_positions=[])
