"""Unit and property tests for the circle kernels and the ``Circle`` oracle."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    Segment,
    Vec2,
    circle_intersections_xy,
    clip_segment_xy,
    segment_crossings_xy,
)
from tests.oracles import (
    Circle,
    reference_circle_circle_intersections,
    reference_clip_segment,
    reference_segment_intersections,
)

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

    @given(coord, radius)
    def test_boundary_points_are_contained(self, angle_seed, r):
        c = Circle(Vec2(0, 0), r)
        p = c.center + Vec2.from_polar(r, angle_seed)
        assert c.contains(p)


class TestSegmentIntersection:
    def test_chord_through_center(self):
        pts = segment_crossings_xy(0.0, 0.0, 5.0, -10.0, 0.0, 10.0, 0.0)
        assert len(pts) == 2
        xs = sorted(x for x, _ in pts)
        assert xs[0] == pytest.approx(-5.0)
        assert xs[1] == pytest.approx(5.0)

    def test_tangent_segment(self):
        pts = segment_crossings_xy(0.0, 0.0, 5.0, -10.0, 5.0, 10.0, 5.0)
        assert len(pts) == 1
        assert pts[0] == pytest.approx((0.0, 5.0), abs=1e-6)

    def test_missing_segment(self):
        assert segment_crossings_xy(0.0, 0.0, 5.0, -10.0, 6.0, 10.0, 6.0) == []

    def test_clip_segment_fully_inside(self):
        assert clip_segment_xy(0.0, 0.0, 10.0, -1.0, 0.0, 1.0, 0.0) == (
            -1.0, 0.0, 1.0, 0.0,
        )

    def test_clip_segment_crossing(self):
        x0, y0, x1, y1 = clip_segment_xy(0.0, 0.0, 5.0, -10.0, 0.0, 10.0, 0.0)
        assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(10.0)

    def test_clip_segment_outside(self):
        assert clip_segment_xy(0.0, 0.0, 5.0, 6.0, 6.0, 10.0, 10.0) is None

    def test_clip_segment_one_end_inside(self):
        x0, y0, x1, y1 = clip_segment_xy(0.0, 0.0, 5.0, 0.0, 0.0, 10.0, 0.0)
        assert (x0, y0) == pytest.approx((0.0, 0.0), abs=1e-6)
        assert (x1, y1) == pytest.approx((5.0, 0.0), abs=1e-6)


class TestCircleCircle:
    def test_two_intersections(self):
        pts = circle_intersections_xy(0.0, 0.0, 5.0, 6.0, 0.0, 5.0)
        assert len(pts) == 2
        for x, _ in pts:
            assert x == pytest.approx(3.0)

    def test_tangent_circles(self):
        pts = circle_intersections_xy(0.0, 0.0, 5.0, 10.0, 0.0, 5.0)
        assert len(pts) == 1
        assert pts[0] == pytest.approx((5.0, 0.0), abs=1e-6)

    def test_disjoint_circles(self):
        assert circle_intersections_xy(0.0, 0.0, 5.0, 20.0, 0.0, 5.0) == []

    def test_concentric_circles(self):
        assert circle_intersections_xy(0.0, 0.0, 5.0, 0.0, 0.0, 3.0) == []


def _as_xy(points):
    return [(p.x, p.y) for p in points]


class TestFloatParity:
    """The float circle kernels against the ``Circle``/``Segment`` oracles.

    Every answer must be ``==``: the kernels keep the references'
    operation order, so not even the last bit may move.
    """

    @staticmethod
    def _check_clip(c, r, a, b):
        circle = Circle(Vec2(*c), r)
        seg = Segment(Vec2(*a), Vec2(*b))
        crossings = segment_crossings_xy(*c, r, *a, *b)
        assert crossings == _as_xy(reference_segment_intersections(circle, seg))
        got = clip_segment_xy(*c, r, *a, *b)
        want = reference_clip_segment(circle, seg)
        if want is None:
            assert got is None
        else:
            assert got == (want.a.x, want.a.y, want.b.x, want.b.y)
        return got

    @staticmethod
    def _check_circles(c1, r1, c2, r2):
        got = circle_intersections_xy(*c1, r1, *c2, r2)
        want = reference_circle_circle_intersections(
            Circle(Vec2(*c1), r1), Circle(Vec2(*c2), r2)
        )
        assert got == _as_xy(want)
        return got

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_segments(self, seed):
        rng = random.Random(seed)
        kinds = set()
        for _ in range(2000):
            c = (rng.uniform(-100, 600), rng.uniform(-100, 600))
            r = rng.uniform(1.0, 80.0)
            a = (c[0] + rng.uniform(-2 * r, 2 * r), c[1] + rng.uniform(-2 * r, 2 * r))
            b = (c[0] + rng.uniform(-2 * r, 2 * r), c[1] + rng.uniform(-2 * r, 2 * r))
            got = self._check_clip(c, r, a, b)
            kinds.add(None if got is None else got == a + b)
        assert kinds == {None, True, False}, "inside, outside and cut cases"

    @pytest.mark.parametrize("seed", [4, 5])
    def test_tangent_and_on_circle_endpoints(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            c = (rng.uniform(0, 500), rng.uniform(0, 500))
            r = rng.uniform(1.0, 80.0)
            angle = rng.uniform(0, 2 * math.pi)
            on = (c[0] + r * math.cos(angle), c[1] + r * math.sin(angle))
            # Tangent: a segment along the tangent line through ``on``,
            # nudged by a few eps either way.
            tx, ty = -math.sin(angle), math.cos(angle)
            shift = rng.choice([0.0, 1e-9, -1e-9, 1e-7, -1e-7])
            p = (on[0] + shift * math.cos(angle), on[1] + shift * math.sin(angle))
            span = rng.uniform(0.5, 3 * r)
            self._check_clip(
                c, r,
                (p[0] - span * tx, p[1] - span * ty),
                (p[0] + span * tx, p[1] + span * ty),
            )
            # Endpoints on the circle: a chord, and a segment leaving it.
            other = rng.uniform(0, 2 * math.pi)
            on2 = (c[0] + r * math.cos(other), c[1] + r * math.sin(other))
            self._check_clip(c, r, on, on2)
            self._check_clip(c, r, on, (on[0] + 2 * r * math.cos(angle), on[1]))
            self._check_clip(c, r, (c[0], c[1]), on)

    def test_degenerate_segments(self):
        rng = random.Random(6)
        for _ in range(300):
            c = (rng.uniform(0, 500), rng.uniform(0, 500))
            r = rng.uniform(1.0, 80.0)
            p = (c[0] + rng.uniform(-1.5 * r, 1.5 * r), c[1] + rng.uniform(-1.5 * r, 1.5 * r))
            self._check_clip(c, r, p, p)
            q = (p[0] + rng.uniform(-1e-5, 1e-5), p[1])
            self._check_clip(c, r, p, q)

    def test_axis_aligned_edges_with_integer_vertices(self):
        # Obstacle rectangles built from ints keep int vertices.
        rng = random.Random(7)
        for _ in range(500):
            c = (rng.uniform(0, 100), rng.uniform(0, 100))
            r = rng.uniform(1.0, 60.0)
            x0, x1 = sorted(rng.sample(range(0, 101), 2))
            y = rng.randrange(0, 101)
            self._check_clip(c, r, (x0, y), (x1, y))
            self._check_clip(c, r, (y, x0), (y, x1))

    @pytest.mark.parametrize("seed", [8, 9])
    def test_random_circle_pairs(self, seed):
        rng = random.Random(seed)
        counts = set()
        for _ in range(2000):
            c1 = (rng.uniform(0, 500), rng.uniform(0, 500))
            c2 = (c1[0] + rng.uniform(-150, 150), c1[1] + rng.uniform(-150, 150))
            r1 = rng.uniform(1.0, 80.0)
            r2 = rng.choice([r1, rng.uniform(1.0, 80.0)])
            counts.add(len(self._check_circles(c1, r1, c2, r2)))
        assert counts == {0, 2}

    def test_special_circle_pairs(self):
        rng = random.Random(10)
        counts = set()
        for _ in range(500):
            c1 = (rng.uniform(0, 500), rng.uniform(0, 500))
            r1 = rng.uniform(1.0, 80.0)
            r2 = rng.uniform(1.0, 80.0)
            angle = rng.uniform(0, 2 * math.pi)
            ux, uy = math.cos(angle), math.sin(angle)
            for d in (
                0.0,  # coincident centres
                r1 + r2,  # externally tangent
                abs(r1 - r2),  # internally tangent
                abs(r1 - r2) * 0.5,  # contained
                r1 + r2 + 10.0,  # distant
                r1 + r2 + rng.choice([1e-9, -1e-9, 1e-10]),
            ):
                c2 = (c1[0] + d * ux, c1[1] + d * uy)
                counts.add(len(self._check_circles(c1, r1, c2, r2)))
                counts.add(len(self._check_circles(c1, r1, c1, r1)))
        assert counts == {0, 1, 2}
