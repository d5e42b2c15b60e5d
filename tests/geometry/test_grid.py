"""Tests for the coverage grid."""

import math

import numpy as np
import pytest

from repro.geometry import CoverageGrid
from tests.oracles import predicate_mask


class TestConstruction:
    def test_shape_and_point_count(self):
        grid = CoverageGrid(0, 0, 100, 50, 10)
        nx, ny = grid.shape
        assert nx == 10
        assert ny == 5
        assert grid.num_points == 50

    def test_invalid_rectangle(self):
        with pytest.raises(ValueError):
            CoverageGrid(0, 0, -10, 10, 1)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            CoverageGrid(0, 0, 10, 10, 0)

    def test_points_inside_rectangle(self):
        grid = CoverageGrid(0, 0, 100, 100, 25)
        px, py = grid.point_arrays()
        assert px.min() >= 0 and px.max() <= 100
        assert py.min() >= 0 and py.max() <= 100


class TestCoverageMask:
    def test_no_centers_means_no_coverage(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        mask = grid.coverage_mask([], 50)
        assert not mask.any()

    def test_large_radius_covers_everything(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        mask = grid.coverage_mask([(50, 50)], 1000)
        assert mask.all()

    def test_fraction_of_quarter_disk(self):
        # A disk of radius 50 centered at a corner of a 100x100 field covers
        # pi * 50^2 / 4 of the area.
        grid = CoverageGrid(0, 0, 100, 100, 2)
        mask = grid.coverage_mask([(0, 0)], 50)
        expected = math.pi * 50**2 / 4 / (100 * 100)
        assert grid.fraction(mask) == pytest.approx(expected, abs=0.02)

    def test_multiple_centers_union(self):
        grid = CoverageGrid(0, 0, 100, 100, 5)
        single = grid.fraction(grid.coverage_mask([(25, 50)], 20))
        double = grid.fraction(grid.coverage_mask([(25, 50), (75, 50)], 20))
        assert double == pytest.approx(2 * single, rel=0.05)

    def test_fraction_with_domain(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        mask = grid.coverage_mask([(0, 0)], 1000)
        domain = predicate_mask(grid, lambda p: p.x < 50)
        assert grid.fraction(mask, domain=domain) == pytest.approx(1.0)

    def test_fraction_with_empty_domain(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        mask = grid.coverage_mask([(0, 0)], 1000)
        domain = np.zeros(grid.num_points, dtype=bool)
        assert grid.fraction(mask, domain=domain) == 0.0


class TestPredicateMask:
    def test_half_plane_predicate(self):
        grid = CoverageGrid(0, 0, 100, 100, 5)
        mask = predicate_mask(grid, lambda p: p.y > 50)
        assert grid.fraction(mask) == pytest.approx(0.5, abs=0.05)
