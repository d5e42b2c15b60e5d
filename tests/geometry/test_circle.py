"""Unit and property tests for circles and disks."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Circle, Segment, Vec2, circle_circle_intersections, disk_overlap_area

coord = st.floats(min_value=-500, max_value=500, allow_nan=False, allow_infinity=False)
radius = st.floats(min_value=0.1, max_value=200, allow_nan=False, allow_infinity=False)


class TestContainment:
    def test_contains_center(self):
        assert Circle(Vec2(0, 0), 5).contains(Vec2(0, 0))

    def test_contains_boundary_point(self):
        assert Circle(Vec2(0, 0), 5).contains(Vec2(5, 0))

    def test_does_not_contain_outside(self):
        assert not Circle(Vec2(0, 0), 5).contains(Vec2(6, 0))

    def test_area(self):
        c = Circle(Vec2(0, 0), 2)
        assert c.area() == pytest.approx(4 * math.pi)


class TestSegmentIntersection:
    def test_chord_through_center(self):
        c = Circle(Vec2(0, 0), 5)
        seg = Segment(Vec2(-10, 0), Vec2(10, 0))
        pts = c.segment_intersections(seg)
        assert len(pts) == 2
        xs = sorted(p.x for p in pts)
        assert xs[0] == pytest.approx(-5.0)
        assert xs[1] == pytest.approx(5.0)

    def test_tangent_segment(self):
        c = Circle(Vec2(0, 0), 5)
        seg = Segment(Vec2(-10, 5), Vec2(10, 5))
        pts = c.segment_intersections(seg)
        assert len(pts) == 1
        assert pts[0].almost_equals(Vec2(0, 5))

    def test_missing_segment(self):
        c = Circle(Vec2(0, 0), 5)
        seg = Segment(Vec2(-10, 6), Vec2(10, 6))
        assert c.segment_intersections(seg) == []

    def test_clip_segment_fully_inside(self):
        c = Circle(Vec2(0, 0), 10)
        seg = Segment(Vec2(-1, 0), Vec2(1, 0))
        assert c.clip_segment(seg) == seg

    def test_clip_segment_crossing(self):
        c = Circle(Vec2(0, 0), 5)
        seg = Segment(Vec2(-10, 0), Vec2(10, 0))
        clipped = c.clip_segment(seg)
        assert clipped.length() == pytest.approx(10.0)

    def test_clip_segment_outside(self):
        c = Circle(Vec2(0, 0), 5)
        seg = Segment(Vec2(6, 6), Vec2(10, 10))
        assert c.clip_segment(seg) is None

    def test_clip_segment_one_end_inside(self):
        c = Circle(Vec2(0, 0), 5)
        seg = Segment(Vec2(0, 0), Vec2(10, 0))
        clipped = c.clip_segment(seg)
        assert clipped.a.almost_equals(Vec2(0, 0))
        assert clipped.b.almost_equals(Vec2(5, 0))


class TestCircleCircle:
    def test_two_intersections(self):
        pts = circle_circle_intersections(
            Circle(Vec2(0, 0), 5), Circle(Vec2(6, 0), 5)
        )
        assert len(pts) == 2
        for p in pts:
            assert p.x == pytest.approx(3.0)

    def test_tangent_circles(self):
        pts = circle_circle_intersections(
            Circle(Vec2(0, 0), 5), Circle(Vec2(10, 0), 5)
        )
        assert len(pts) == 1
        assert pts[0].almost_equals(Vec2(5, 0))

    def test_disjoint_circles(self):
        assert (
            circle_circle_intersections(Circle(Vec2(0, 0), 5), Circle(Vec2(20, 0), 5))
            == []
        )

    def test_concentric_circles(self):
        assert (
            circle_circle_intersections(Circle(Vec2(0, 0), 5), Circle(Vec2(0, 0), 3))
            == []
        )


class TestOverlapArea:
    def test_disjoint_disks(self):
        assert disk_overlap_area(Circle(Vec2(0, 0), 5), Circle(Vec2(20, 0), 5)) == 0.0

    def test_identical_disks(self):
        a = disk_overlap_area(Circle(Vec2(0, 0), 5), Circle(Vec2(0, 0), 5))
        assert a == pytest.approx(math.pi * 25)

    def test_contained_disk(self):
        a = disk_overlap_area(Circle(Vec2(0, 0), 10), Circle(Vec2(1, 0), 2))
        assert a == pytest.approx(math.pi * 4)

    def test_half_overlap_is_symmetric(self):
        a = disk_overlap_area(Circle(Vec2(0, 0), 5), Circle(Vec2(4, 0), 5))
        b = disk_overlap_area(Circle(Vec2(4, 0), 5), Circle(Vec2(0, 0), 5))
        assert a == pytest.approx(b)
        assert 0 < a < math.pi * 25

    def test_subnormal_centre_distance_is_full_overlap(self):
        # 2 * d * r underflows to zero; the lens formula would divide by it.
        a = disk_overlap_area(
            Circle(Vec2(0, 0), 0.25), Circle(Vec2(0.0, 5e-324), 0.25)
        )
        assert a == pytest.approx(math.pi * 0.0625)

    @given(st.builds(Vec2, coord, coord), st.builds(Vec2, coord, coord), radius, radius)
    def test_overlap_bounded_by_smaller_disk(self, c1, c2, r1, r2):
        overlap = disk_overlap_area(Circle(c1, r1), Circle(c2, r2))
        smaller = math.pi * min(r1, r2) ** 2
        assert -1e-6 <= overlap <= smaller + 1e-6

    @given(coord, radius)
    def test_boundary_points_are_contained(self, angle_seed, r):
        c = Circle(Vec2(0, 0), r)
        p = c.center + Vec2.from_polar(r, angle_seed)
        assert c.contains(p)
