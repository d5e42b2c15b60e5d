"""Unit and property tests for polygons."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.core import VirtualForceModel
from repro.field import Field, Obstacle
from repro.geometry import Polygon, Segment, Vec2
from tests.oracles import (
    reference_boundary_distance,
    reference_closest_boundary_point,
    reference_contains,
    reference_obstacle_force,
    reference_on_boundary,
    reference_polygon_intersections,
    segment_entry_error,
)
from tests.oracles.geometry import reference_edges


def unit_square() -> Polygon:
    return Polygon.rectangle(0, 0, 10, 10)


def regular_polygon(center: Vec2, radius: float, sides: int) -> Polygon:
    """Regular polygon with ``sides`` vertices inscribed in a circle."""
    return Polygon(
        [
            center + Vec2.from_polar(radius, 2.0 * math.pi * i / sides)
            for i in range(sides)
        ]
    )


class TestConstruction:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([Vec2(0, 0), Vec2(1, 1)])

    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            Polygon.rectangle(5, 5, 5, 10)


class TestMeasures:
    def test_rectangle_area(self):
        assert unit_square().area() == pytest.approx(100.0)

    def test_rectangle_perimeter(self):
        assert unit_square().perimeter() == pytest.approx(40.0)

    def test_signed_area_positive_ccw(self):
        assert unit_square().signed_area() > 0

    def test_signed_area_negative_cw(self):
        cw = Polygon(list(reversed(unit_square().vertices)))
        assert cw.signed_area() < 0
        assert cw.counter_clockwise().signed_area() > 0

    def test_centroid_of_rectangle(self):
        assert unit_square().centroid().almost_equals(Vec2(5, 5))

    def test_bounding_box(self):
        assert unit_square().bounding_box() == (0, 0, 10, 10)

    def test_triangle_area(self):
        tri = Polygon([Vec2(0, 0), Vec2(10, 0), Vec2(0, 10)])
        assert tri.area() == pytest.approx(50.0)

    def test_edges_count(self):
        assert len(unit_square().edges()) == 4


class TestContainment:
    def test_contains_interior_point(self):
        assert unit_square().contains(Vec2(5, 5))

    def test_does_not_contain_exterior_point(self):
        assert not unit_square().contains(Vec2(15, 5))

    def test_boundary_point_included_by_default(self):
        assert unit_square().contains(Vec2(0, 5))

    def test_boundary_point_excluded_when_requested(self):
        assert not unit_square().contains(Vec2(0, 5), include_boundary=False)

    def test_on_boundary(self):
        assert reference_on_boundary(unit_square(), Vec2(10, 3))
        assert not reference_on_boundary(unit_square(), Vec2(5, 5))

    def test_distance_to_point(self):
        assert unit_square().distance_to_point(Vec2(5, 5)) == 0.0
        assert unit_square().distance_to_point(Vec2(13, 5)) == pytest.approx(3.0)

    def test_boundary_distance_inside(self):
        assert unit_square().nearest_boundary_xy(5.0, 5.0)[0] == pytest.approx(5.0)

    def test_closest_boundary_point(self):
        p = unit_square().closest_boundary_point(Vec2(5, 20))
        assert p.almost_equals(Vec2(5, 10))


class TestSegmentQueries:
    def test_segment_crosses_interior(self):
        assert unit_square().segment_crosses_interior(Segment(Vec2(-5, 5), Vec2(15, 5)))

    def test_grazing_segment_does_not_cross_interior(self):
        grazing = Segment(Vec2(-5, 10), Vec2(15, 10))
        assert not unit_square().segment_crosses_interior(grazing)

    def test_segment_intersections_sorted(self):
        pts = unit_square().segment_intersections(Segment(Vec2(-5, 5), Vec2(15, 5)))
        assert len(pts) == 2
        assert pts[0].x < pts[1].x

    def test_contained_segment_has_no_boundary_intersections(self):
        pts = unit_square().segment_intersections(Segment(Vec2(2, 2), Vec2(8, 8)))
        assert pts == []


def l_shape() -> Polygon:
    """A concave L: the 10x10 square minus its upper-right 6x6 notch."""
    return Polygon(
        [Vec2(0, 0), Vec2(10, 0), Vec2(10, 4), Vec2(4, 4), Vec2(4, 10), Vec2(0, 10)]
    )


CROSSING_CASES = {
    "inside-diagonal": (unit_square, (2, 2), (8, 8), True),
    "straight-through": (unit_square, (-5, 5), (15, 5), True),
    "along-an-edge": (unit_square, (0, 0), (10, 0), False),
    "parallel-outside": (unit_square, (-5, 12), (15, 12), False),
    "touches-a-corner": (unit_square, (-5, 5), (5, 15), False),
    "leaves-from-the-boundary": (unit_square, (10, 5), (20, 5), False),
    "enters-from-the-boundary": (unit_square, (10, 5), (5, 5), True),
    "point-inside": (unit_square, (3, 3), (3, 3), True),
    "point-on-boundary": (unit_square, (0, 3), (0, 3), False),
    "l-notch-inside-bbox": (l_shape, (6, 6), (9, 9), False),
    "l-across-the-notch": (l_shape, (2, 8), (8, 2), True),
    "l-along-the-inner-corner": (l_shape, (4, 4), (10, 4), False),
}


def assert_crossing_matches_the_oracle(polygon, seg):
    """The crossing answer is the kernel's, and the kernel's entry agrees
    with the exact reference (``tests/oracles/entry.py``) to 1e-9 m."""
    a, b = seg.a, seg.b
    t = polygon.first_entry_xy(a.x, a.y, b.x, b.y)
    assert polygon.segment_crosses_interior(seg) is (t is not None)
    assert segment_entry_error(polygon, a.x, a.y, b.x, b.y, t) is None, (
        polygon.vertices,
        seg,
    )


class TestCrossingCases:
    """Fixed crossings, each against its known answer and the full oracle."""

    @pytest.mark.parametrize("case", sorted(CROSSING_CASES))
    def test_crossing(self, case):
        make, a, b, expected = CROSSING_CASES[case]
        polygon = make()
        seg = Segment(Vec2(*a), Vec2(*b))
        assert polygon.segment_crosses_interior(seg) is expected
        assert polygon.segment_crosses_interior(Segment(seg.b, seg.a)) is expected
        assert_crossing_matches_the_oracle(polygon, seg)


class TestProperties:
    sizes = st.floats(min_value=1.0, max_value=500.0)
    offsets = st.floats(min_value=-500.0, max_value=500.0)

    @given(offsets, offsets, sizes, sizes)
    def test_rectangle_area_matches_dimensions(self, x, y, w, h):
        rect = Polygon.rectangle(x, y, x + w, y + h)
        assert rect.area() == pytest.approx(w * h, rel=1e-9)

    @given(offsets, offsets, sizes, sizes)
    def test_rectangle_contains_its_centroid(self, x, y, w, h):
        rect = Polygon.rectangle(x, y, x + w, y + h)
        assert rect.contains(rect.centroid())

    @given(st.integers(min_value=3, max_value=12), sizes)
    def test_regular_polygon_area_below_circle(self, sides, r):
        poly = regular_polygon(Vec2(0, 0), r, sides)
        assert poly.area() <= math.pi * r * r + 1e-6


# ----------------------------------------------------------------------
# Parity of the bbox-rejecting predicates with the bbox-free reference
# ----------------------------------------------------------------------
def _rotated_rectangle(rng):
    cx, cy = rng.uniform(-50, 150), rng.uniform(-50, 150)
    w, h = rng.uniform(1, 60), rng.uniform(1, 60)
    angle = rng.uniform(0, math.pi)
    corners = [(-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)]
    return Polygon(
        [Vec2(cx, cy) + Vec2(x, y).rotated(angle) for x, y in corners]
    )


def _star(rng):
    center = Vec2(rng.uniform(0, 100), rng.uniform(0, 100))
    spikes = rng.randint(3, 7)
    outer, inner = rng.uniform(10, 40), rng.uniform(2, 9)
    return Polygon(
        [
            center + Vec2.from_polar(outer if k % 2 == 0 else inner, math.pi * k / spikes)
            for k in range(2 * spikes)
        ]
    )


def _l_shape(rng):
    x, y = rng.uniform(-20, 80), rng.uniform(-20, 80)
    a, b = rng.uniform(10, 40), rng.uniform(3, 9)
    return Polygon(
        [
            Vec2(x, y), Vec2(x + a, y), Vec2(x + a, y + b), Vec2(x + b, y + b),
            Vec2(x + b, y + a), Vec2(x, y + a),
        ]
    )


def _thin(rng):
    # A sliver: long and between 1e-7 and 1e-2 wide, axis-aligned or not.
    start = Vec2(rng.uniform(0, 100), rng.uniform(0, 100))
    direction = Vec2.from_polar(1.0, rng.choice([0.0, math.pi / 2, rng.uniform(0, math.pi)]))
    length = rng.uniform(5, 80)
    width = 10 ** rng.uniform(-7, -2)
    normal = direction.perpendicular() * width
    end = start + direction * length
    return Polygon([start, end, end + normal, start + normal])


def _rectangle(rng):
    x, y = rng.uniform(-50, 150), rng.uniform(-50, 150)
    return Polygon.rectangle(x, y, x + rng.uniform(0.5, 60), y + rng.uniform(0.5, 60))


POLYGON_MAKERS = {
    "rectangle": _rectangle,
    "rotated": _rotated_rectangle,
    "star": _star,
    "l-shape": _l_shape,
    "thin": _thin,
}


def _near_boundary_points(rng, polygon, count):
    """Points on edges, on vertices and within +-2e-7 of the boundary."""
    edges = reference_edges(polygon)
    points = list(polygon.vertices)
    for _ in range(count):
        edge = rng.choice(edges)
        on_edge = edge.point_at(rng.choice([0.0, 1.0, rng.random()]))
        points.append(on_edge)
        normal = edge.a.towards(edge.b).perpendicular()
        for offset in (1e-7, -1e-7, rng.uniform(-2e-7, 2e-7)):
            points.append(on_edge + normal * offset)
        points.append(on_edge + Vec2(rng.uniform(-2e-7, 2e-7), rng.uniform(-2e-7, 2e-7)))
    xmin, ymin, xmax, ymax = polygon.bounding_box()
    for _ in range(count):
        # Just inside / outside the eps-padded bounding box.
        pad = rng.choice([1e-7, -1e-7, 1.5e-7, 0.5e-7, 0.0])
        points.append(Vec2(xmin - pad, rng.uniform(ymin, ymax)))
        points.append(Vec2(xmax + pad, rng.uniform(ymin, ymax)))
        points.append(Vec2(rng.uniform(xmin, xmax), ymin - pad))
        points.append(Vec2(rng.uniform(xmin, xmax), ymax + pad))
    return points


def _random_points(rng, polygon, count):
    xmin, ymin, xmax, ymax = polygon.bounding_box()
    mx, my = (xmax - xmin) + 1.0, (ymax - ymin) + 1.0
    return [
        Vec2(rng.uniform(xmin - mx, xmax + mx), rng.uniform(ymin - my, ymax + my))
        for _ in range(count)
    ]


def _cutoff_points(rng, polygon, reach, count):
    """Points ``reach`` and ``reach +- 1e-9`` outside the padded bbox."""
    xmin, ymin, xmax, ymax = polygon.reject_box()
    points = []
    for _ in range(count):
        for gap in (reach - 1e-9, reach, reach + 1e-9):
            x = rng.uniform(xmin - reach, xmax + reach)
            y = rng.uniform(ymin - reach, ymax + reach)
            points += [
                Vec2(xmin - gap, y),
                Vec2(xmax + gap, y),
                Vec2(x, ymin - gap),
                Vec2(x, ymax + gap),
                Vec2(xmin - gap, ymin - gap),
                Vec2(xmax + gap, ymax + gap),
            ]
    return points


def _inside_points(rng, polygon, count):
    """Random points of the bbox that lie strictly inside the polygon."""
    xmin, ymin, xmax, ymax = polygon.bounding_box()
    candidates = [
        Vec2(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)) for _ in range(count)
    ]
    return [
        p for p in candidates if reference_contains(polygon, p, include_boundary=False)
    ]


def _segments(rng, polygon, count):
    """Random segments, bbox-touching ones, edge grazers and zero-length ones."""
    xmin, ymin, xmax, ymax = polygon.bounding_box()
    probes = _random_points(rng, polygon, count) + _near_boundary_points(
        rng, polygon, count // 4
    )
    segments = []
    for _ in range(count):
        segments.append(Segment(rng.choice(probes), rng.choice(probes)))
    for _ in range(count // 2):
        # One endpoint on (or just off) a side of the bbox, the other outside.
        pad = rng.choice([0.0, 1e-7, -1e-7, 2e-7])
        side = rng.randrange(4)
        y = rng.uniform(ymin, ymax)
        x = rng.uniform(xmin, xmax)
        touch, away = [
            (Vec2(xmin - pad, y), Vec2(xmin - 30, y + rng.uniform(-30, 30))),
            (Vec2(xmax + pad, y), Vec2(xmax + 30, y + rng.uniform(-30, 30))),
            (Vec2(x, ymin - pad), Vec2(x + rng.uniform(-30, 30), ymin - 30)),
            (Vec2(x, ymax + pad), Vec2(x + rng.uniform(-30, 30), ymax + 30)),
        ][side]
        segments.append(Segment(touch, away))
        segments.append(Segment(away, touch))
    for edge in reference_edges(polygon):
        # Grazers: the edge itself, extended along its line, shifted by eps.
        d = edge.b - edge.a
        normal = edge.a.towards(edge.b).perpendicular()
        for shift in (0.0, 1e-7, -1e-7, 1e-6, -1e-6):
            offset = normal * shift
            segments.append(Segment(edge.a + offset, edge.b + offset))
            segments.append(
                Segment(edge.a - d * 0.5 + offset, edge.b + d * 0.5 + offset)
            )
    for p in probes[: count // 2] + list(polygon.vertices):
        segments.append(Segment(p, p))
    return segments


@pytest.mark.parametrize("kind", sorted(POLYGON_MAKERS))
@pytest.mark.parametrize("seed", [1, 2, 3])
class TestBBoxRejectParity:
    """The bbox reject never changes an answer of the bbox-free predicates."""

    def test_contains_parity(self, kind, seed):
        rng = random.Random(f"{kind}-{seed}")
        for _ in range(3):
            polygon = POLYGON_MAKERS[kind](rng)
            if rng.random() < 0.5:
                polygon = Polygon(tuple(reversed(polygon.vertices)))
            points = _random_points(rng, polygon, 80) + _near_boundary_points(
                rng, polygon, 25
            )
            for p in points:
                for include_boundary in (True, False):
                    assert polygon.contains(p, include_boundary) == reference_contains(
                        polygon, p, include_boundary
                    ), (polygon.vertices, p, include_boundary)

    def test_segment_crosses_interior_parity(self, kind, seed):
        rng = random.Random(f"segment-{kind}-{seed}")
        for _ in range(2):
            polygon = POLYGON_MAKERS[kind](rng)
            for seg in _segments(rng, polygon, 60):
                assert_crossing_matches_the_oracle(polygon, seg)


    def test_segment_intersections_parity(self, kind, seed):
        # Edge by edge on floats, or through Segment.intersection for an
        # edge parallel to the segment: the same points in the same order.
        rng = random.Random(f"intersections-{kind}-{seed}")
        for _ in range(2):
            polygon = POLYGON_MAKERS[kind](rng)
            for seg in _segments(rng, polygon, 60):
                assert polygon.segment_intersections(
                    seg
                ) == reference_polygon_intersections(polygon, seg), (
                    polygon.vertices,
                    seg,
                )

    def test_nearest_boundary_parity(self, kind, seed):
        rng = random.Random(f"nearest-{kind}-{seed}")
        for _ in range(3):
            polygon = POLYGON_MAKERS[kind](rng)
            points = (
                _random_points(rng, polygon, 60)
                + _near_boundary_points(rng, polygon, 20)
                + _inside_points(rng, polygon, 30)
            )
            for p in points:
                closest = reference_closest_boundary_point(polygon, p)
                assert polygon.nearest_boundary_xy(p.x, p.y) == (
                    reference_boundary_distance(polygon, p),
                    closest.x,
                    closest.y,
                ), (polygon.vertices, p)
                assert polygon.closest_boundary_point(p) == closest

    def test_obstacle_force_parity(self, kind, seed):
        # The perception cutoff and the float arithmetic change no force.
        rng = random.Random(f"force-{kind}-{seed}")
        for _ in range(3):
            polygon = POLYGON_MAKERS[kind](rng)
            field = Field(200.0, 200.0, [Obstacle(polygon)])
            reach = rng.choice([40.0, rng.uniform(0.5, 60.0)])
            model = VirtualForceModel(repulsion_distance=80.0, obstacle_distance=reach)
            points = (
                _random_points(rng, polygon, 40)
                + _near_boundary_points(rng, polygon, 10)
                + _cutoff_points(rng, polygon, reach, 5)
                + _inside_points(rng, polygon, 30)
            )
            for p in points:
                expected = reference_obstacle_force(model, p, field)
                assert model.force_from_obstacles(p.x, p.y, field) == (
                    expected.x,
                    expected.y,
                ), (polygon.vertices, reach, p)


class TestCachedGeometry:
    def test_edges_are_built_once_and_match_the_vertices(self):
        poly = Polygon([Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(5, 5), Vec2(0, 10)])
        assert poly.edges() is poly.edges()
        assert list(poly.edges()) == reference_edges(poly)

    def test_cached_state_stays_out_of_equality_and_hash(self):
        a = Polygon.rectangle(0, 0, 10, 10)
        b = Polygon(list(a.vertices))
        assert a == b and hash(a) == hash(b)

    def test_pickle_round_trip_keeps_the_fast_paths(self):
        import pickle

        poly = Polygon.rectangle(0, 0, 10, 10)
        clone = pickle.loads(pickle.dumps(poly))
        assert clone == poly
        assert clone.bounding_box() == poly.bounding_box()
        assert not clone.contains(Vec2(20, 5))
        assert clone.contains(Vec2(5, 5))

    def test_point_just_past_the_padded_box_is_outside(self):
        poly = Polygon.rectangle(0, 0, 10, 10)
        assert poly.contains(Vec2(-1e-7, 5))  # on the boundary within eps
        assert not poly.contains(Vec2(-1e-6, 5))
        assert not poly.segment_crosses_interior(Segment(Vec2(-1, -1), Vec2(-1, 20)))


# Parity-first ``contains_xy`` against the boundary-first reference
# ----------------------------------------------------------------------
def _contains_probe_polygons():
    """A rectangle, a non-convex L and star, a polygon with a zero-length
    edge and one with an edge shorter than the degenerate cut-off."""
    l_shape = Polygon(
        [Vec2(0, 0), Vec2(30, 0), Vec2(30, 8), Vec2(8, 8), Vec2(8, 30), Vec2(0, 30)]
    )
    star = Polygon(
        [
            Vec2(50, 50) + Vec2.from_polar(20.0 if k % 2 == 0 else 6.0, math.pi * k / 5)
            for k in range(10)
        ]
    )
    repeated = Polygon(
        [Vec2(0, 0), Vec2(20, 0), Vec2(20, 0), Vec2(20, 15), Vec2(0, 15)]
    )
    near_repeated = Polygon(
        [Vec2(0, 0), Vec2(20, 0), Vec2(20, 1e-12), Vec2(20, 15), Vec2(0, 15)]
    )
    return {
        "rectangle": Polygon.rectangle(-5, 2, 25, 12),
        "l-shape": l_shape,
        "star": star,
        "repeated-vertex": repeated,
        "near-repeated-vertex": near_repeated,
    }


def _contains_probes(polygon, rng):
    """Vertices, points on edges, points within and just past 1e-7 of an
    edge on both sides and around 1e-6 inside (a rectangle's inner box),
    points near every vertex, random points, NaN."""
    points = list(polygon.vertices)
    for edge in reference_edges(polygon):
        length = edge.a.distance_to(edge.b)
        normal = (
            edge.a.towards(edge.b).perpendicular() if length > 0 else Vec2(0.0, 1.0)
        )
        for t in (0.0, 0.25, 0.5, 1.0, rng.random()):
            on_edge = edge.point_at(t)
            points.append(on_edge)
            for offset in (0.5e-7, 0.999e-7, 1e-7, 1.001e-7, 1.5e-7, 1e-6, 1.001e-6):
                points.append(on_edge + normal * offset)
                points.append(on_edge - normal * offset)
        for offset in (1e-7, 1.2e-7):
            points += [edge.a + Vec2(offset, offset), edge.a - Vec2(offset, 0.0)]
    xmin, ymin, xmax, ymax = polygon.bounding_box()
    for _ in range(60):
        points.append(
            Vec2(rng.uniform(xmin - 5, xmax + 5), rng.uniform(ymin - 5, ymax + 5))
        )
    mid_x, mid_y = (xmin + xmax) / 2, (ymin + ymax) / 2
    nan = math.nan
    points += [Vec2(nan, mid_y), Vec2(mid_x, nan), Vec2(nan, nan)]
    return points


class TestParityFirstContains:
    """``contains_xy`` runs the ray-cast parity first and the boundary
    test only when the parity differs from ``include_boundary``; its
    answers are the boundary-first reference's, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_contains_probe_polygons()))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_the_reference(self, name, reverse):
        polygon = _contains_probe_polygons()[name]
        if reverse:
            polygon = Polygon(tuple(reversed(polygon.vertices)))
        rng = random.Random(f"{name}-{reverse}")
        for p in _contains_probes(polygon, rng):
            for include_boundary in (True, False):
                assert polygon.contains_xy(
                    p.x, p.y, include_boundary
                ) == reference_contains(polygon, p, include_boundary), (
                    name,
                    p,
                    include_boundary,
                )

    def test_boundary_band_and_nan(self):
        square = Polygon.rectangle(0, 0, 10, 10)
        for include_boundary in (True, False):
            assert square.contains_xy(5.0, 1e-7, include_boundary) is include_boundary
            assert square.contains_xy(5.0, -1e-7, include_boundary) is include_boundary
            assert square.contains_xy(0.0, 0.0, include_boundary) is include_boundary
            assert square.contains_xy(5.0, 2e-7, include_boundary) is True
            assert square.contains_xy(5.0, -2e-7, include_boundary) is False
            for x, y in ((math.nan, 5.0), (5.0, math.nan), (math.nan, math.nan)):
                assert square.contains_xy(x, y, include_boundary) is False



def test_only_rectangles_take_the_inner_box():
    """The inner-box shortcut of ``contains_xy`` is for axis-aligned
    rectangles alone."""
    # Four axis-aligned edges that do not go round their bbox: the
    # vertical edge at x = 1 is traversed twice, so the parity says
    # outside everywhere.
    folded = Polygon([Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(1, 0)])
    rotated = Polygon([Vec2(1, 0), Vec2(2, 1), Vec2(1, 2), Vec2(0, 1)])
    assert folded.contains_xy(0.5, 0.5) is reference_contains(folded, Vec2(0.5, 0.5))
    assert folded.contains_xy(0.5, 0.5) is False
    assert rotated.contains_xy(1.0, 1.0) is True
    for polygon in (folded, rotated):
        xmin, ymin, xmax, ymax = polygon._inner_box
        assert xmin > xmax and ymin > ymax
    assert Polygon.rectangle(0, 0, 2, 3)._inner_box == (1e-6, 1e-6, 2 - 1e-6, 3 - 1e-6)
