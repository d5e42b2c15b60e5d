"""All-obstacle forms of the float field queries.

``Field`` keeps a table of obstacle reject boxes per ``field.version``
and calls a polygon predicate only for an obstacle a query can reach;
``max_free_travel`` picks the obstacles near the whole move once per
call.  The functions here are the float queries without any of that:
every probe walks every obstacle through the polygon predicates, with
the same float operations in the same order, so production must return
exactly (``==``) what they return.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.virtual_force import _unit
from repro.field.field import _SPIRAL_DIRECTIONS
from repro.geometry import Vec2, clip_segment_xy

__all__ = [
    "all_obstacle_boundary_pieces",
    "all_obstacle_force",
    "all_obstacle_is_free",
    "all_obstacle_max_free_travel",
    "all_obstacle_nearest_free",
    "all_obstacle_segment_blocked",
]


def all_obstacle_is_free(field, x: float, y: float) -> bool:
    """In the field rectangle and inside no obstacle."""
    if not (0.0 <= x <= field.width and 0.0 <= y <= field.height):
        return False
    return not any(
        ob.polygon.contains_xy(x, y, include_boundary=False)
        for ob in field.obstacles
    )


def all_obstacle_segment_blocked(
    field, ax: float, ay: float, bx: float, by: float
) -> bool:
    """Leaves the field rectangle or crosses an obstacle's interior."""
    width, height = field.width, field.height
    if not (
        0.0 <= ax <= width
        and 0.0 <= ay <= height
        and 0.0 <= bx <= width
        and 0.0 <= by <= height
    ):
        return True
    return any(
        ob.polygon.crosses_interior_xy(ax, ay, bx, by) for ob in field.obstacles
    )


def _admissible_move(field, x: float, y: float, ex: float, ey: float) -> bool:
    return all_obstacle_is_free(field, ex, ey) and not any(
        ob.polygon.crosses_interior_xy(x, y, ex, ey) for ob in field.obstacles
    )


def all_obstacle_max_free_travel(
    field, x: float, y: float, dir_x: float, dir_y: float, distance: float
) -> float:
    """The float bisection with every probe against every obstacle."""
    if distance <= 0:
        return 0.0
    norm = math.hypot(dir_x, dir_y)
    if norm <= 1e-9:
        return 0.0
    unit_x, unit_y = dir_x / norm, dir_y / norm
    if not (0.0 <= x <= field.width and 0.0 <= y <= field.height):
        return 0.0
    if _admissible_move(field, x, y, x + unit_x * distance, y + unit_y * distance):
        return distance
    lo, hi = 0.0, distance
    for _ in range(24):
        mid = (lo + hi) / 2.0
        if _admissible_move(field, x, y, x + unit_x * mid, y + unit_y * mid):
            lo = mid
        else:
            hi = mid
    return lo


def all_obstacle_nearest_free(
    field, p: Vec2, step: float = 1.0, max_radius: float = 200.0
) -> Vec2:
    """The float spiral of ``Field.nearest_free``, each probe a full
    :func:`all_obstacle_is_free`."""
    width, height = field.width, field.height
    cx = min(width, max(0.0, p.x))
    cy = min(height, max(0.0, p.y))
    if all_obstacle_is_free(field, cx, cy):
        return Vec2(cx, cy)
    radius = step
    while radius <= max_radius:
        for cos_k, sin_k in _SPIRAL_DIRECTIONS:
            qx = min(width, max(0.0, cx + radius * cos_k))
            qy = min(height, max(0.0, cy + radius * sin_k))
            if all_obstacle_is_free(field, qx, qy):
                return Vec2(qx, qy)
        radius += step
    return Vec2(cx, cy)


def all_obstacle_boundary_pieces(
    field, cx: float, cy: float, radius: float
) -> List[Tuple[float, float, float, float]]:
    """Every field and obstacle edge clipped to the disk, in order."""
    edges = list(field.boundary_polygon().edges())
    for ob in field.obstacles:
        edges.extend(ob.boundary_edges())
    pieces = []
    for e in edges:
        piece = clip_segment_xy(cx, cy, radius, e.a.x, e.a.y, e.b.x, e.b.y)
        if piece is not None and (
            math.hypot(piece[0] - piece[2], piece[1] - piece[3]) > 1e-9
        ):
            pieces.append(piece)
    return pieces


def all_obstacle_force(model, px: float, py: float, field) -> Tuple[float, float]:
    """``VirtualForceModel.force_from_obstacles`` measuring every
    obstacle, with no reject-box skip."""
    reach = model.obstacle_distance
    gain = model.obstacle_gain
    force_x = force_y = 0.0
    for ob in field.obstacles:
        polygon = ob.polygon
        dist, cx, cy = polygon.nearest_boundary_xy(px, py)
        if polygon.contains_xy(px, py, include_boundary=False):
            ux, uy = _unit(cx - px, cy - py)
            force_x += ux * -gain
            force_y += uy * -gain
            continue
        if dist >= reach or dist <= 1e-9:
            continue
        ux, uy = _unit(px - cx, py - cy)
        magnitude = gain * (reach - dist) / reach
        force_x += ux * magnitude
        force_y += uy * magnitude
    wall_x, wall_y = model.boundary_force_xy(px, py, field.width, field.height)
    return force_x + wall_x, force_y + wall_y
