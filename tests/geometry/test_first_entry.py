"""``Polygon.first_entry_xy`` against the exact reference.

The kernel returns the parameter at which a segment enters a polygon's
interior.  Hypothesis draws rectangles (on a coarse grid, so that they
share edges the way maze and room walls do), 1e-3 m slivers, L shapes
and triangles, and segments that graze a vertex, run along or just off
an edge, start on the boundary or inside, or are a single point.  Every
answer must agree with the ``Fraction`` reference to within 1e-9 m
(``tests/oracles/entry.py``): a slab clip against the eps-shrunk box for
rectangles, exact edge crossings and a dense scan for other polygons.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Polygon, Vec2
from tests.oracles import segment_entry_error

#: Offsets, in metres, that put a point on, within the boundary eps of,
#: or clearly off an edge or vertex.
OFFSETS = (0.0, 0.0, 1e-9, -1e-9, 1e-7, -1e-7, 2e-7, -2e-7, 1e-3, -1e-3)

coords = st.integers(min_value=0, max_value=12).map(lambda k: 5.0 * k)


@st.composite
def rectangles(draw):
    x0, x1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    return Polygon.rectangle(x0, y0, x1, y1)


@st.composite
def slivers(draw):
    """A 1e-3 m wide strip, axis-aligned or at an angle."""
    x, y = draw(coords), draw(coords)
    length = draw(st.floats(min_value=1.0, max_value=40.0))
    angle = draw(st.sampled_from((0.0, math.pi / 2, 0.3, 2.0)))
    direction = Vec2.from_polar(1.0, angle)
    normal = direction.perpendicular() * 1e-3
    start = Vec2(x, y)
    end = start + direction * length
    return Polygon([start, end, end + normal, start + normal])


@st.composite
def l_shapes(draw):
    x, y = draw(coords), draw(coords)
    a = draw(st.floats(min_value=10.0, max_value=40.0))
    b = draw(st.floats(min_value=1e-3, max_value=9.0))
    return Polygon(
        [
            Vec2(x, y), Vec2(x + a, y), Vec2(x + a, y + b), Vec2(x + b, y + b),
            Vec2(x + b, y + a), Vec2(x, y + a),
        ]
    )


@st.composite
def triangles(draw):
    points = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=60.0),
                st.floats(min_value=0.0, max_value=60.0),
            ),
            min_size=3,
            max_size=3,
        )
    )
    (ax, ay), (bx, by), (cx, cy) = points
    if abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) < 1.0:
        cx, cy = cx + 7.0, cy - 11.0  # keep it from collapsing to a line
    return Polygon([Vec2(ax, ay), Vec2(bx, by), Vec2(cx, cy)])


polygons = st.one_of(rectangles(), slivers(), l_shapes(), triangles())


@st.composite
def anchors(draw, polygon):
    """A point at a vertex, on an edge, inside or anywhere near the
    polygon, nudged by one of :data:`OFFSETS` on each axis."""
    vertices = polygon.vertices
    kind = draw(st.sampled_from(("vertex", "edge", "inside", "free")))
    if kind == "vertex":
        p = draw(st.sampled_from(vertices))
    elif kind == "edge":
        i = draw(st.integers(min_value=0, max_value=len(vertices) - 1))
        a, b = vertices[i], vertices[(i + 1) % len(vertices)]
        p = a.lerp(b, draw(st.floats(min_value=0.0, max_value=1.0)))
    elif kind == "inside":
        p = polygon.centroid()
    else:
        xmin, ymin, xmax, ymax = polygon.bounding_box()
        p = Vec2(
            draw(st.floats(min_value=xmin - 20.0, max_value=xmax + 20.0)),
            draw(st.floats(min_value=ymin - 20.0, max_value=ymax + 20.0)),
        )
    return Vec2(p.x + draw(st.sampled_from(OFFSETS)), p.y + draw(st.sampled_from(OFFSETS)))


@st.composite
def polygon_and_segment(draw):
    polygon = draw(polygons)
    a = draw(anchors(polygon))
    shape = draw(st.sampled_from(("anchor", "along-edge", "point", "extended")))
    if shape == "point":
        b = a
    elif shape == "along-edge":
        # Run along (the line of) an edge, from before it to beyond it.
        vertices = polygon.vertices
        i = draw(st.integers(min_value=0, max_value=len(vertices) - 1))
        e0, e1 = vertices[i], vertices[(i + 1) % len(vertices)]
        shift = draw(st.sampled_from(OFFSETS))
        normal = e0.towards(e1).perpendicular() * shift
        a = e0.lerp(e1, draw(st.sampled_from((-0.5, 0.0, 0.3)))) + normal
        b = e0.lerp(e1, draw(st.sampled_from((0.7, 1.0, 1.5)))) + normal
    else:
        b = draw(anchors(polygon))
        if shape == "extended":
            b = a + (b - a) * 3.0
    return polygon, a, b


def assert_entry(polygon, ax, ay, bx, by):
    t = polygon.first_entry_xy(ax, ay, bx, by)
    assert t is None or 0.0 <= t < 1.0
    assert segment_entry_error(polygon, ax, ay, bx, by, t) is None


@settings(max_examples=400, deadline=None)
@given(polygon_and_segment())
def test_entry_matches_the_exact_reference(case):
    polygon, a, b = case
    assert_entry(polygon, a.x, a.y, b.x, b.y)
    assert_entry(polygon, b.x, b.y, a.x, a.y)


L_SHAPE = Polygon(
    [Vec2(0, 0), Vec2(10, 0), Vec2(10, 4), Vec2(4, 4), Vec2(4, 10), Vec2(0, 10)]
)
SQUARE = Polygon.rectangle(0, 0, 10, 10)
ENTRY_CASES = {
    # A polygon is entered where the segment gets farther than the eps
    # from its boundary, inside.
    "rectangle-straight-through": (SQUARE, (-5, 5), (15, 5), 0.25 + 1e-7 / 20),
    "rectangle-along-an-edge": (SQUARE, (-5, 0), (15, 0), None),
    "rectangle-within-the-eps": (SQUARE, (-5, 5e-8), (15, 5e-8), None),
    "rectangle-starts-inside": (SQUARE, (5, 5), (15, 5), 0.0),
    "rectangle-leaves-from-the-boundary": (SQUARE, (10, 5), (20, 5), None),
    "rectangle-corner-graze": (SQUARE, (-5, 5), (5, 15), None),
    "rectangle-point-inside": (SQUARE, (3, 3), (3, 3), 0.0),
    "l-across-the-notch": (L_SHAPE, (8, 12), (8, -2), (8 + 1e-7) / 14),
    "l-notch-only": (L_SHAPE, (6, 6), (9, 9), None),
    "l-along-the-inner-edge": (L_SHAPE, (4, 4), (10, 4), None),
    "l-through-the-reflex-vertex": (L_SHAPE, (2, 6), (6, 2), 0.0),
}


@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_fixed_entries(case):
    polygon, (ax, ay), (bx, by), expected = ENTRY_CASES[case]
    t = polygon.first_entry_xy(ax, ay, bx, by)
    if expected is None:
        assert t is None
    else:
        assert t == pytest.approx(expected, abs=1e-12)
    assert_entry(polygon, ax, ay, bx, by)
