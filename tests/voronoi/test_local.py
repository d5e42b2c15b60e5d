"""Tests for communication-limited (local) Voronoi cells — the Fig 1 effect."""

import random

import pytest

from repro.field import obstacle_free_field
from repro.geometry import Vec2
from repro.voronoi import diagram_is_correct, local_cell


class TestLocalCells:
    def test_large_range_reproduces_true_cell(self):
        field = obstacle_free_field(100.0)
        positions = [Vec2(25, 50), Vec2(75, 50), Vec2(50, 90)]
        # A communication range covering everyone yields the true diagram.
        result = diagram_is_correct(positions, 200.0, field)
        assert result.all_correct
        assert result.incorrect_count == 0

    def test_short_range_produces_incorrect_cells(self):
        field = obstacle_free_field(100.0)
        # The middle sensor cannot hear either neighbour, so its local cell
        # is the whole field instead of the true middle slab.
        positions = [Vec2(10, 50), Vec2(50, 50), Vec2(90, 50)]
        result = diagram_is_correct(positions, 20.0, field)
        assert not result.all_correct
        assert result.incorrect_count >= 1

    def test_local_cell_overestimates_with_short_range(self):
        field = obstacle_free_field(100.0)
        positions = [Vec2(10, 50), Vec2(50, 50), Vec2(90, 50)]
        blind = local_cell(1, positions, 20.0, field)
        informed = local_cell(1, positions, 100.0, field)
        assert blind.polygon.area() > informed.polygon.area()

    def test_local_cells_returns_one_per_sensor(self):
        field = obstacle_free_field(100.0)
        positions = [Vec2(20, 20), Vec2(40, 60), Vec2(80, 30)]
        cells = diagram_is_correct(positions, 30.0, field).cells
        assert cells == [local_cell(i, positions, 30.0, field) for i in range(3)]

    def test_incorrect_count_decreases_with_range(self):
        field = obstacle_free_field(200.0)
        rng = random.Random(5)
        positions = [Vec2(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(15)]
        incorrect_small = diagram_is_correct(positions, 30.0, field).incorrect_count
        incorrect_large = diagram_is_correct(positions, 400.0, field).incorrect_count
        assert incorrect_large == 0
        assert incorrect_small >= incorrect_large

    def test_single_sensor_is_always_correct(self):
        field = obstacle_free_field(100.0)
        result = diagram_is_correct([Vec2(50, 50)], 1.0, field)
        assert result.all_correct
