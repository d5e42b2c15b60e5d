"""Tests for the VOR and Minimax baselines."""

import random

import pytest

from repro.baselines import MinimaxScheme, VorScheme
from repro.field import obstacle_free_field, uniform_initial_positions
from repro.geometry import Vec2


def random_layout(count, field, seed=1):
    return uniform_initial_positions(count, random.Random(seed), field)


class TestVor:
    def test_rounds_improve_coverage(self):
        field = obstacle_free_field(500.0)
        scheme = VorScheme(field, 200.0, 60.0)
        initial = random_layout(25, field, seed=2)
        before = scheme.coverage(initial, resolution=20.0)
        result = scheme.run(initial, rounds=8)
        after = scheme.coverage(result.final_positions, resolution=20.0)
        assert after >= before

    def test_positions_stay_in_field(self):
        field = obstacle_free_field(500.0)
        scheme = VorScheme(field, 100.0, 60.0)
        result = scheme.run(random_layout(20, field, seed=3), rounds=5)
        for p in result.final_positions:
            assert field.is_free(p)

    def test_per_round_move_bounded_by_half_rc(self):
        field = obstacle_free_field(500.0)
        rc = 80.0
        scheme = VorScheme(field, rc, 60.0)
        result = scheme.run(random_layout(15, field, seed=4), rounds=1)
        for distance in result.per_sensor_distance:
            assert distance <= rc / 2.0 + 1e-6

    def test_distance_accounting_matches_displacement_for_one_round(self):
        field = obstacle_free_field(500.0)
        scheme = VorScheme(field, 100.0, 60.0)
        initial = random_layout(10, field, seed=5)
        result = scheme.run(initial, rounds=1)
        for start, end, moved in zip(
            initial, result.final_positions, result.per_sensor_distance
        ):
            assert moved == pytest.approx(start.distance_to(end), abs=1e-6)

    def test_result_aggregates(self):
        field = obstacle_free_field(500.0)
        scheme = VorScheme(field, 100.0, 60.0)
        result = scheme.run(random_layout(10, field, seed=6), rounds=3)
        assert result.total_distance == pytest.approx(sum(result.per_sensor_distance))
        assert result.average_distance == pytest.approx(result.total_distance / 10)
        assert 1 <= result.rounds_executed <= 3


class TestMinimax:
    def test_rounds_improve_coverage(self):
        field = obstacle_free_field(500.0)
        scheme = MinimaxScheme(field, 200.0, 60.0)
        initial = random_layout(25, field, seed=7)
        before = scheme.coverage(initial, resolution=20.0)
        result = scheme.run(initial, rounds=8)
        after = scheme.coverage(result.final_positions, resolution=20.0)
        assert after >= before

    def test_single_sensor_moves_toward_field_center(self):
        field = obstacle_free_field(500.0)
        scheme = MinimaxScheme(field, 1000.0, 60.0)
        result = scheme.run([Vec2(10, 10)], rounds=1)
        # Its cell is the whole field; the minimax point is the centre.
        assert result.final_positions[0].almost_equals(Vec2(250, 250), eps=1.0)

    def test_positions_stay_in_field(self):
        field = obstacle_free_field(500.0)
        scheme = MinimaxScheme(field, 100.0, 60.0)
        result = scheme.run(random_layout(20, field, seed=8), rounds=5)
        for p in result.final_positions:
            assert field.is_free(p)


class TestLocalCellEffect:
    def test_small_rc_changes_behaviour(self):
        """With a tiny rc the local Voronoi cells are wrong and coverage is
        lower than with full information (the Fig 10 effect)."""
        field = obstacle_free_field(500.0)
        layout = random_layout(30, field, seed=9)
        blind = VorScheme(field, 30.0, 60.0, use_local_cells=True)
        informed = VorScheme(field, 30.0, 60.0, use_local_cells=False)
        blind_cov = blind.coverage(blind.run(layout, rounds=6).final_positions, 20.0)
        informed_cov = informed.coverage(
            informed.run(layout, rounds=6).final_positions, 20.0
        )
        assert informed_cov >= blind_cov - 0.05
