"""Tests for polygonal obstacles."""

import pytest

from repro.field import Obstacle
from repro.geometry import Polygon, Segment, Vec2


class TestRectangleObstacle:
    def setup_method(self):
        self.ob = Obstacle.rectangle(10, 10, 20, 20, name="block")

    def test_contains_interior(self):
        assert self.ob.contains(Vec2(15, 15))

    def test_boundary_not_contained_by_default(self):
        assert not self.ob.contains(Vec2(10, 15))
        assert self.ob.contains(Vec2(10, 15), include_boundary=True)

    def test_does_not_contain_outside(self):
        assert not self.ob.contains(Vec2(5, 5))

    def test_blocks_crossing_segment(self):
        assert self.ob.blocks_segment(Segment(Vec2(0, 15), Vec2(30, 15)))

    def test_does_not_block_distant_segment(self):
        assert not self.ob.blocks_segment(Segment(Vec2(0, 0), Vec2(30, 0)))

    def test_does_not_block_grazing_segment(self):
        assert not self.ob.blocks_segment(Segment(Vec2(0, 10), Vec2(30, 10)))

    def test_perimeter_and_area(self):
        assert self.ob.polygon.perimeter() == pytest.approx(40.0)
        assert self.ob.area() == pytest.approx(100.0)

    def test_bounding_box(self):
        assert self.ob.bounding_box() == (10, 10, 20, 20)

    def test_distance_to(self):
        assert self.ob.distance_to(Vec2(15, 15)) == 0.0
        assert self.ob.distance_to(Vec2(25, 15)) == pytest.approx(5.0)

    def test_closest_boundary_point(self):
        assert self.ob.closest_boundary_point(Vec2(15, 0)).almost_equals(Vec2(15, 10))

    def test_first_hit_orders_by_entry(self):
        hit = self.ob.first_hit(Segment(Vec2(0, 15), Vec2(30, 15)))
        assert hit.almost_equals(Vec2(10, 15))

    def test_first_hit_none_when_missing(self):
        assert self.ob.first_hit(Segment(Vec2(0, 0), Vec2(5, 5))) is None

    def test_boundary_edges(self):
        assert len(self.ob.boundary_edges()) == 4

    def test_name(self):
        assert self.ob.name == "block"


class TestPolygonalObstacle:
    def test_triangle_obstacle(self):
        tri = Obstacle(Polygon([Vec2(0, 0), Vec2(10, 0), Vec2(5, 10)]), name="tri")
        assert tri.contains(Vec2(5, 3))
        assert not tri.contains(Vec2(0, 10))
        assert tri.area() == pytest.approx(50.0)
