"""Exact references for the straight-move kernel.

``Polygon.first_entry_xy`` returns the parameter at which a segment enters
a polygon's interior (the points ``contains_xy(..., include_boundary=False)``
holds: inside, and farther than the boundary eps from every edge);
``crosses_interior_xy`` and ``Field.max_free_travel`` are built on it.
The checks here judge an answer for the move ``a + s * d``, ``s`` in
``[0, s_max]``, without the kernel's float arithmetic, and allow it to
be off by ``DEPTH_SLACK`` (1e-9 m):

* an axis-aligned rectangle's interior is its box shrunk by the eps, so
  its entry lies between two ``fractions.Fraction`` slab clips, against
  the box shrunk by the eps minus and plus the slack;
* for any other polygon, a dense scan (the move cut at its exact edge
  crossings, :data:`SCAN_SAMPLES` samples per piece) finds the first
  point deeper than the eps plus the slack, which the entry must not
  follow; and the point the answer names must lie on the eps-deep
  level, within the slack (deeper only at the start of the move).

:func:`free_travel_error` judges ``Field.max_free_travel`` the same way,
with the field walls clipped exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

__all__ = [
    "DEPTH_SLACK",
    "SCAN_SAMPLES",
    "entry_error",
    "free_travel_error",
    "is_axis_aligned_rectangle",
    "segment_entry_error",
]

#: The polygon boundary eps (``repro.geometry.polygon._BOUNDARY_EPS``).
_EPS = 1e-7
#: How far, in metres, an answer may be off.
DEPTH_SLACK = 1e-9
#: Evenly spaced scan samples per piece of a non-rectangle move.
SCAN_SAMPLES = 64


def is_axis_aligned_rectangle(polygon) -> bool:
    """Four vertices at the bounding box's corners."""
    vertices = polygon.vertices
    xs = {v.x for v in vertices}
    ys = {v.y for v in vertices}
    return (
        len(vertices) == 4
        and len(xs) == 2
        and len(ys) == 2
        and {(v.x, v.y) for v in vertices} == {(x, y) for x in xs for y in ys}
        and all(
            a.x == b.x or a.y == b.y
            for a, b in zip(vertices, vertices[1:] + vertices[:1])
        )
    )


def _slab_entry(polygon, ax, ay, dx, dy, s_max, eps) -> Optional[Fraction]:
    """First ``s`` in ``[0, s_max)`` inside the open box shrunk by ``eps``."""
    xs = [Fraction(v.x) for v in polygon.vertices]
    ys = [Fraction(v.y) for v in polygon.vertices]
    box = ((min(xs) + eps, max(xs) - eps), (min(ys) + eps, max(ys) - eps))
    lo, hi = None, None  # the open interval of s inside, None unbounded
    for a, d, (low, high) in zip((ax, ay), (dx, dy), box):
        if d == 0:
            if not low < a < high:
                return None
            continue
        u, v = (low - a) / d, (high - a) / d
        if d < 0:
            u, v = v, u
        lo = u if lo is None else max(lo, u)
        hi = v if hi is None else min(hi, v)
    if lo is not None and not (lo < hi and lo < s_max and hi > 0):
        return None
    return max(lo, Fraction(0)) if lo is not None else Fraction(0)


def _depth(polygon, px: float, py: float) -> float:
    """Signed distance to the boundary: positive inside, negative outside."""
    vertices = polygon.vertices
    best = math.inf
    inside = False
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        if (a.y > py) != (b.y > py):
            if px < a.x + (py - a.y) * (b.x - a.x) / (b.y - a.y):
                inside = not inside
        dx, dy = b.x - a.x, b.y - a.y
        dd = dx * dx + dy * dy
        t = 0.0 if dd == 0.0 else ((px - a.x) * dx + (py - a.y) * dy) / dd
        t = min(1.0, max(0.0, t))
        best = min(best, math.hypot(px - (a.x + dx * t), py - (a.y + dy * t)))
    return best if inside else -best


def _crossings(polygon, ax, ay, dx, dy, s_max) -> List[Fraction]:
    """Every ``s`` in ``(0, s_max)`` where the move meets an edge."""
    cuts = []
    vertices = polygon.vertices
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        ex, ey = Fraction(a.x), Fraction(a.y)
        fx, fy = Fraction(b.x) - ex, Fraction(b.y) - ey
        denom = dx * fy - dy * fx
        wx, wy = ex - ax, ey - ay
        if denom == 0:
            continue  # parallel: its ends are on the neighbouring edges
        u = (wx * dy - wy * dx) / denom
        s = (wx * fy - wy * fx) / denom
        if 0 <= u <= 1 and 0 < s < s_max:
            cuts.append(s)
    return sorted(set(cuts))


def _scan_entry(polygon, ax, ay, dx, dy, s_max) -> Optional[Fraction]:
    """The first scan sample deeper than the eps plus the slack."""
    cuts = [Fraction(0)] + _crossings(polygon, ax, ay, dx, dy, s_max) + [s_max]
    for s0, s1 in zip(cuts, cuts[1:]):
        for k in range(SCAN_SAMPLES + 1):
            s = s0 + (s1 - s0) * Fraction(k, SCAN_SAMPLES)
            if _depth(polygon, float(ax + dx * s), float(ay + dy * s)) > _EPS + DEPTH_SLACK:
                return s
    return None


def _bounds(polygon, ax, ay, dx, dy, s_max):
    """``(lo, hi)``: the entry lies in ``[lo, hi]`` (``None``: no bound
    from that side; a rectangle's ``lo`` ``None`` means never entered)."""
    if is_axis_aligned_rectangle(polygon):
        slack = Fraction(DEPTH_SLACK)
        return (
            _slab_entry(polygon, ax, ay, dx, dy, s_max, Fraction(_EPS) - slack),
            _slab_entry(polygon, ax, ay, dx, dy, s_max, Fraction(_EPS) + slack),
        )
    return None, _scan_entry(polygon, ax, ay, dx, dy, s_max)


def _at_entry_depth(polygon, ax, ay, dx, dy, s) -> bool:
    """Whether the point at ``s`` is on the eps-deep level (within the
    slack), or deeper when ``s`` is the move's start."""
    depth = _depth(polygon, float(ax + dx * s), float(ay + dy * s))
    return depth >= _EPS - DEPTH_SLACK and (s == 0 or depth <= _EPS + DEPTH_SLACK)


def entry_error(polygon, ax, ay, dx, dy, s_max, s) -> Optional[str]:
    """Why ``s`` (``None``: never enters) is not, to within the slack, the
    entry parameter of the move ``(ax, ay) + s * (dx, dy)``, ``s`` in
    ``[0, s_max]`` (Fractions); ``None`` when it is."""
    scale = math.hypot(float(dx), float(dy))  # metres per unit of s
    lo, hi = _bounds(polygon, ax, ay, dx, dy, s_max)
    if hi is not None and (s is None or (s - hi) * scale > DEPTH_SLACK):
        return f"entry {s} misses or follows {float(hi)}"
    if s is None:
        return None
    if is_axis_aligned_rectangle(polygon):
        if lo is None or (lo - s) * scale > DEPTH_SLACK:
            return f"entry {float(s)} precedes {lo}"
    elif not _at_entry_depth(polygon, ax, ay, dx, dy, s):
        return f"entry {float(s)} is not on the interior's edge"
    return None


def segment_entry_error(polygon, ax: float, ay: float, bx: float, by: float, t):
    """:func:`entry_error` of the segment ``a -> b`` (``s`` in ``[0, 1]``)."""
    ax, ay, bx, by = map(Fraction, (ax, ay, bx, by))
    s = None if t is None else Fraction(t)
    return entry_error(polygon, ax, ay, bx - ax, by - ay, Fraction(1), s)


def free_travel_error(
    field, x: float, y: float, dir_x: float, dir_y: float, distance: float, travel: float
) -> Optional[str]:
    """Why ``travel`` is not, to within the slack, where the move first
    leaves the closed field rectangle or enters an obstacle's interior;
    ``None`` when it is."""
    norm = math.hypot(dir_x, dir_y)
    if distance <= 0 or norm <= 1e-9 or not (
        0.0 <= x <= field.width and 0.0 <= y <= field.height
    ):
        return None if travel == 0.0 else f"travel {travel} of a blocked move"
    ax, ay, dx, dy = map(Fraction, (x, y, dir_x, dir_y))
    s_max = Fraction(distance) / Fraction(norm)
    wall = s_max
    for a, d, size in ((ax, dx, field.width), (ay, dy, field.height)):
        if d > 0:
            wall = min(wall, (Fraction(size) - a) / d)
        elif d < 0:
            wall = min(wall, -a / d)
    lo = hi = wall
    others = []
    for ob in field.obstacles:
        ob_lo, ob_hi = _bounds(ob.polygon, ax, ay, dx, dy, s_max)
        if ob_hi is not None:
            hi = min(hi, ob_hi)
        if is_axis_aligned_rectangle(ob.polygon):
            if ob_lo is not None:
                lo = min(lo, ob_lo)
        else:
            others.append(ob.polygon)
    s = Fraction(travel) / Fraction(norm)
    if (s - hi) * Fraction(norm) > DEPTH_SLACK:
        return f"travel {travel} passes {float(hi * Fraction(norm))}"
    if (lo - s) * Fraction(norm) > DEPTH_SLACK and not any(
        _at_entry_depth(polygon, ax, ay, dx, dy, s) for polygon in others
    ):
        return f"travel {travel} stops short of {float(lo * Fraction(norm))}"
    return None
