"""Tests for the floor geometry used by FLOOR."""

import pytest
from hypothesis import given, strategies as st

from repro.core import FloorGeometry
from repro.field import obstacle_free_field
from repro.geometry import Vec2
from tests.oracles import reference_floor_line_segment


def make_floors(rs=40.0, height=1000.0, width=1000.0) -> FloorGeometry:
    return FloorGeometry(sensing_range=rs, field_height=height, field_width=width)


class TestBasics:
    def test_floor_height_is_twice_sensing_range(self):
        assert make_floors(rs=40).floor_height == 80.0

    def test_floor_count(self):
        assert make_floors(rs=40, height=1000).floor_count == 13  # ceil(1000/80)
        assert make_floors(rs=50, height=1000).floor_count == 10

    def test_floor_line_positions(self):
        floors = make_floors(rs=40)
        assert floors.floor_line_y(0) == 40.0
        assert floors.floor_line_y(1) == 120.0
        assert floors.floor_line_y(12) == 1000.0  # clamped to the field

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FloorGeometry(sensing_range=0, field_height=100, field_width=100)
        with pytest.raises(ValueError):
            FloorGeometry(sensing_range=10, field_height=-1, field_width=100)
        with pytest.raises(ValueError):
            make_floors().floor_line_y(-1)

    def test_for_field_constructor(self):
        field = obstacle_free_field(500.0)
        floors = FloorGeometry.for_field(field, 40.0)
        assert floors.field_height == 500.0
        assert floors.field_width == 500.0


class TestFloorLookup:
    def test_floor_index(self):
        floors = make_floors(rs=40)
        assert floors.floor_index(0.0) == 0
        assert floors.floor_index(79.9) == 0
        assert floors.floor_index(80.1) == 1
        assert floors.floor_index(1000.0) == 12

    def test_nearest_floor_line(self):
        floors = make_floors(rs=40)
        assert floors.nearest_floor_line(10.0) == 40.0
        assert floors.nearest_floor_line(100.0) == 120.0
        assert floors.nearest_floor_line(75.0) == 40.0
        assert floors.nearest_floor_line(85.0) == 120.0

    def test_floor_line_segment_spans_width(self):
        floors = make_floors(rs=40, width=500)
        seg = reference_floor_line_segment(floors, 2)
        assert seg.a == Vec2(0, 200)
        assert seg.b == Vec2(500, 200)

    @given(st.floats(min_value=0, max_value=1000))
    def test_every_point_is_within_rs_of_its_nearest_floor_line(self, y):
        floors = make_floors(rs=40)
        assert abs(y - floors.nearest_floor_line(y)) <= 40.0 + 1e-9


class TestInterFloorLines:
    def test_inter_floor_line_above_and_below(self):
        floors = make_floors(rs=40, height=320)
        assert floors.inter_floor_line_below(0) is None
        assert floors.inter_floor_line_above(0) == 80.0
        assert floors.inter_floor_line_below(2) == 160.0
        assert floors.inter_floor_line_above(3) is None


class TestCoverageQuerySupport:
    def test_floors_possibly_covering(self):
        floors = make_floors(rs=40)
        covering = floors.floors_possibly_covering(Vec2(100, 80), 40.0)
        # Point at y=80 can be covered from floor lines 40 and 120 only.
        assert covering == [0, 1]

    def test_point_on_floor_line_covered_by_that_floor(self):
        floors = make_floors(rs=40)
        assert 1 in floors.floors_possibly_covering(Vec2(0, 120), 40.0)
