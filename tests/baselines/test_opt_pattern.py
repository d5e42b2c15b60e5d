"""Tests for the OPT strip-based deployment pattern."""

import math

import pytest

from repro.baselines import OptStripPattern
from repro.field import obstacle_free_field, two_obstacle_field
from repro.metrics import positions_are_connected


def coverage_for_count(pattern, count, resolution):
    """Coverage fraction achieved by the first ``count`` pattern points."""
    return pattern.field.coverage_fraction(
        pattern.positions_for_count(count), pattern.sensing_range, resolution
    )


class TestGeometry:
    def test_spacings_for_large_rc(self):
        pattern = OptStripPattern(obstacle_free_field(1000.0), 120.0, 60.0)
        assert pattern.intra_strip_spacing == pytest.approx(math.sqrt(3) * 60.0)
        assert pattern.inter_strip_spacing == pytest.approx(60.0 + 30.0)

    def test_spacings_for_small_rc(self):
        pattern = OptStripPattern(obstacle_free_field(1000.0), 40.0, 60.0)
        assert pattern.intra_strip_spacing == pytest.approx(40.0)
        expected_inter = 60.0 + math.sqrt(60.0**2 - 400.0)
        assert pattern.inter_strip_spacing == pytest.approx(expected_inter)

    def test_rejects_obstacle_fields(self):
        with pytest.raises(ValueError):
            OptStripPattern(two_obstacle_field(), 60.0, 40.0)

    def test_rejects_invalid_ranges(self):
        with pytest.raises(ValueError):
            OptStripPattern(obstacle_free_field(1000.0), 0.0, 40.0)


class TestPositions:
    def test_positions_inside_field(self):
        pattern = OptStripPattern(obstacle_free_field(500.0), 60.0, 40.0)
        for p in pattern.full_pattern_positions():
            assert 0 <= p.x <= 500
            assert 0 <= p.y <= 500

    def test_positions_for_count_truncates(self):
        pattern = OptStripPattern(obstacle_free_field(500.0), 60.0, 40.0)
        assert len(pattern.positions_for_count(10)) == 10

    def test_positions_for_count_extends(self):
        pattern = OptStripPattern(obstacle_free_field(300.0), 60.0, 40.0)
        needed = len(pattern.full_pattern_positions())
        positions = pattern.positions_for_count(needed + 5)
        assert len(positions) == needed + 5

    def test_positions_for_count_rejects_negative(self):
        pattern = OptStripPattern(obstacle_free_field(300.0), 60.0, 40.0)
        with pytest.raises(ValueError):
            pattern.positions_for_count(-1)

    def test_full_pattern_achieves_near_full_coverage(self):
        field = obstacle_free_field(500.0)
        pattern = OptStripPattern(field, 60.0, 60.0)
        coverage = coverage_for_count(
            pattern, len(pattern.full_pattern_positions()), resolution=10.0
        )
        assert coverage >= 0.95

    def test_full_pattern_is_connected(self):
        field = obstacle_free_field(500.0)
        pattern = OptStripPattern(field, 60.0, 60.0)
        positions = pattern.full_pattern_positions()
        assert positions_are_connected(positions, 60.0)

    def test_coverage_monotone_in_count(self):
        field = obstacle_free_field(500.0)
        pattern = OptStripPattern(field, 60.0, 40.0)
        low = coverage_for_count(pattern, 20, resolution=20.0)
        high = coverage_for_count(pattern, 60, resolution=20.0)
        assert high >= low

    def test_saturated_pattern_keeps_full_coverage(self):
        field = obstacle_free_field(300.0)
        pattern = OptStripPattern(field, 60.0, 60.0)
        needed = len(pattern.full_pattern_positions())
        assert coverage_for_count(pattern, needed * 2, resolution=15.0) >= 0.95
