"""Tests for the evaluation metrics (coverage, distance, CDFs, connectivity)."""

import math

import pytest

from repro.field import Field, Obstacle, obstacle_free_field
from repro.geometry import Vec2
from repro.metrics import (
    DistanceSummary,
    EmpiricalCDF,
    connected_components,
    positions_are_connected,
    summarize_distances,
    summarize_sensor_distances,
)
from repro.mobility import MotionModel
from repro.sensors import Sensor


class TestCoverage:
    """The paper's coverage metric, ``Field.coverage_fraction``."""

    def test_two_disjoint_disks(self):
        field = obstacle_free_field(200.0)
        positions = [Vec2(50, 50), Vec2(150, 150)]
        expected = 2 * math.pi * 1600 / 40000
        assert field.coverage_fraction(positions, 40.0, 10.0) == pytest.approx(
            expected, abs=0.02
        )

    def test_single_disk(self):
        field = obstacle_free_field(200.0)
        expected = math.pi * 2500 / 40000
        assert field.coverage_fraction([Vec2(100, 100)], 50.0, 5.0) == pytest.approx(
            expected, abs=0.02
        )

    def test_empty_layout(self):
        field = obstacle_free_field(200.0)
        assert field.coverage_fraction([], 50.0, 10.0) == 0.0

    def test_obstacles_excluded_from_denominator(self):
        field = Field(100.0, 100.0, [Obstacle.rectangle(0, 0, 50, 100)])
        # A sensor covering only the free half yields full coverage.
        assert field.coverage_fraction([Vec2(75, 50)], 60.0, 2.0) >= 0.95


class TestDistanceSummary:
    def test_empty(self):
        summary = summarize_distances([])
        assert summary == DistanceSummary(0.0, 0.0, 0.0, 0.0, 0)

    def test_statistics(self):
        summary = summarize_distances([1.0, 2.0, 3.0, 10.0])
        assert summary.total == pytest.approx(16.0)
        assert summary.average == pytest.approx(4.0)
        assert summary.median == pytest.approx(2.5)
        assert summary.maximum == pytest.approx(10.0)
        assert summary.count == 4

    def test_sensor_odometers(self):
        sensors = []
        for i, d in enumerate([5.0, 15.0]):
            motion = MotionModel(position=Vec2(0, 0), max_speed=2.0, period=1.0)
            motion.move_to(Vec2(d, 0))
            sensors.append(Sensor(i, motion, 60.0, 40.0))
        summary = summarize_sensor_distances(sensors)
        assert summary.total == pytest.approx(20.0)
        assert summary.average == pytest.approx(10.0)


class TestEmpiricalCDF:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_probability_at_most(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.probability_at_most(0.5) == 0.0
        assert cdf.probability_at_most(2.0) == pytest.approx(0.5)
        assert cdf.probability_at_most(10.0) == 1.0

    def test_quantiles(self):
        cdf = EmpiricalCDF([10, 20, 30, 40, 50])
        assert cdf.quantile(0.0) == 10
        assert cdf.median() == 30
        assert cdf.quantile(1.0) == 50
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_mean(self):
        assert EmpiricalCDF([1, 2, 3]).mean() == pytest.approx(2.0)

    def test_series_has_requested_length(self):
        cdf = EmpiricalCDF([1, 5, 9])
        assert len(cdf.series(7)) == 7
        with pytest.raises(ValueError):
            cdf.series(1)

    def test_series_of_constant_sample(self):
        series = EmpiricalCDF([2.0, 2.0]).series(3)
        assert all(prob == 1.0 for _, prob in series)


class TestConnectivityMetrics:
    def test_connected_chain(self):
        positions = [Vec2(0, 0), Vec2(25, 0), Vec2(50, 0)]
        assert positions_are_connected(positions, 30.0)

    def test_disconnected_pair(self):
        positions = [Vec2(0, 0), Vec2(100, 0)]
        assert not positions_are_connected(positions, 30.0)

    def test_base_station_counts_as_node(self):
        positions = [Vec2(25, 0), Vec2(50, 0)]
        assert positions_are_connected(positions, 30.0, base_station=Vec2(0, 0))
        assert not positions_are_connected(positions, 20.0, base_station=Vec2(0, 0))

    def test_components(self):
        positions = [Vec2(0, 0), Vec2(10, 0), Vec2(500, 500)]
        components = connected_components(positions, 30.0)
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 2]

    def test_empty_is_connected(self):
        assert positions_are_connected([], 30.0)
