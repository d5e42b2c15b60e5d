"""Unit and property tests for line segments."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Segment, Vec2, on_segment
from tests.oracles import (
    midpoint,
    orientation,
    segment_closest_point,
    segment_distance_to_point,
    segments_intersect,
)

coord = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)
points = st.builds(Vec2, coord, coord)


class TestBasics:
    def test_length(self):
        assert Segment(Vec2(0, 0), Vec2(3, 4)).length() == pytest.approx(5.0)

    def test_midpoint(self):
        assert midpoint(Segment(Vec2(0, 0), Vec2(4, 6))) == Vec2(2, 3)

    def test_point_at(self):
        s = Segment(Vec2(0, 0), Vec2(10, 0))
        assert s.point_at(0.3).almost_equals(Vec2(3, 0))


class TestOrientation:
    def test_counter_clockwise(self):
        assert orientation(Vec2(0, 0), Vec2(1, 0), Vec2(1, 1)) == 1

    def test_clockwise(self):
        assert orientation(Vec2(0, 0), Vec2(1, 0), Vec2(1, -1)) == -1

    def test_collinear(self):
        assert orientation(Vec2(0, 0), Vec2(1, 0), Vec2(2, 0)) == 0

    def test_on_segment(self):
        assert on_segment(Vec2(1, 0), Vec2(0, 0), Vec2(2, 0))
        assert not on_segment(Vec2(3, 0), Vec2(0, 0), Vec2(2, 0))


class TestDistances:
    def test_distance_to_point_perpendicular(self):
        s = Segment(Vec2(0, 0), Vec2(10, 0))
        assert segment_distance_to_point(s, Vec2(5, 3)) == pytest.approx(3.0)

    def test_distance_to_point_beyond_endpoint(self):
        s = Segment(Vec2(0, 0), Vec2(10, 0))
        assert segment_distance_to_point(s, Vec2(13, 4)) == pytest.approx(5.0)

    def test_closest_point_clamps(self):
        s = Segment(Vec2(0, 0), Vec2(10, 0))
        assert segment_closest_point(s, Vec2(-5, 5)).almost_equals(Vec2(0, 0))


class TestIntersection:
    def test_crossing_segments(self):
        s1 = Segment(Vec2(0, 0), Vec2(10, 0))
        s2 = Segment(Vec2(5, -5), Vec2(5, 5))
        assert segments_intersect(s1, s2)
        assert s1.intersection(s2).almost_equals(Vec2(5, 0))

    def test_non_crossing_segments(self):
        s1 = Segment(Vec2(0, 0), Vec2(10, 0))
        s2 = Segment(Vec2(0, 1), Vec2(10, 1))
        assert not segments_intersect(s1, s2)
        assert s1.intersection(s2) is None

    def test_touching_at_endpoint(self):
        s1 = Segment(Vec2(0, 0), Vec2(5, 0))
        s2 = Segment(Vec2(5, 0), Vec2(5, 5))
        assert segments_intersect(s1, s2)
        assert s1.intersection(s2).almost_equals(Vec2(5, 0))

    def test_collinear_overlap_reports_no_unique_point(self):
        s1 = Segment(Vec2(0, 0), Vec2(10, 0))
        s2 = Segment(Vec2(5, 0), Vec2(15, 0))
        assert segments_intersect(s1, s2)
        assert s1.intersection(s2) is None


class TestProperties:
    @given(points, points, points, points)
    def test_intersection_is_symmetric(self, a, b, c, d):
        s1, s2 = Segment(a, b), Segment(c, d)
        assert segments_intersect(s1, s2) == segments_intersect(s2, s1)

    @given(points, points)
    def test_midpoint_equidistant(self, a, b):
        mid = midpoint(Segment(a, b))
        assert mid.distance_to(a) == pytest.approx(mid.distance_to(b), abs=1e-6)

    @given(points, points, points)
    def test_distance_to_point_not_more_than_endpoint_distance(self, a, b, p):
        s = Segment(a, b)
        nearer_end = min(p.distance_to(a), p.distance_to(b))
        assert segment_distance_to_point(s, p) <= nearer_end + 1e-6

    @given(points, points, st.floats(min_value=0, max_value=1))
    def test_points_on_segment_have_zero_distance(self, a, b, t):
        s = Segment(a, b)
        p = s.point_at(t)
        assert segment_distance_to_point(s, p) == pytest.approx(0.0, abs=1e-6)
