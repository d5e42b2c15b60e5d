"""Benchmark-local correctness oracles for a finished deployment.

Each check is written here from first principles (even-odd point in
polygon, a sampling grid, plain distances), so the benchmark keeps
working when the program moves or deletes its own reference oracles.
Positions and obstacles are read from the final world; nothing here
calls a program predicate.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

#: Points closer than this to an obstacle edge are on its boundary, and
#: the boundary is not part of the obstacle (sensors may slide along it).
BOUNDARY_EPS = 1e-7
#: Slack on tree-link lengths.
LINK_EPS = 1e-6
#: Id of the base station in the tree's parent map.
BASE_ID = -1

Polygon = Sequence[Tuple[float, float]]


def _edge_distance(px, py, ax, ay, bx, by):
    """Distance from points ``(px, py)`` (arrays) to segment ``ab``."""
    dx, dy = bx - ax, by - ay
    length2 = dx * dx + dy * dy
    if length2 == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / length2, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def interior_mask(px, py, polygon: Polygon) -> np.ndarray:
    """Which points lie strictly inside ``polygon`` (even-odd rule)."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    inside = np.zeros(px.shape, dtype=bool)
    near_edge = np.zeros(px.shape, dtype=bool)
    bx, by = polygon[-1]
    for ax, ay in polygon:
        if ay != by:
            straddles = (ay > py) != (by > py)
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            inside ^= straddles & (px < x_cross)
        near_edge |= _edge_distance(px, py, ax, ay, bx, by) <= BOUNDARY_EPS
        bx, by = ax, ay
    return inside & ~near_edge


def grid_coverage(
    positions: Sequence[Tuple[float, float]],
    sensing_range: float,
    resolution: float,
    width: float,
    height: float,
    obstacles: Sequence[Polygon],
) -> float:
    """Covered share of the obstacle-free sample points of the field.

    Sample points sit at the centres of ``resolution``-sized cells; a
    point is covered when some sensor lies within ``sensing_range``.
    """
    xs = np.arange(resolution / 2, width, resolution)
    ys = np.arange(resolution / 2, height, resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    free = np.ones(gx.shape, dtype=bool)
    for polygon in obstacles:
        free &= ~interior_mask(gx, gy, polygon)
    covered = np.zeros(gx.shape, dtype=bool)
    r2 = sensing_range * sensing_range
    for cx, cy in positions:
        dx = gx - cx
        dy = gy - cy
        covered |= dx * dx + dy * dy <= r2
    denominator = int(np.count_nonzero(free))
    if denominator == 0:
        return 0.0
    return float(np.count_nonzero(covered & free)) / float(denominator)


def placement_problems(
    positions: Sequence[Tuple[float, float]],
    width: float,
    height: float,
    obstacles: Sequence[Polygon],
) -> List[str]:
    """Sensors outside the field or strictly inside an obstacle."""
    problems = []
    for i, (x, y) in enumerate(positions):
        if not (0.0 <= x <= width and 0.0 <= y <= height):
            problems.append(f"sensor #{i} at ({x:.3f}, {y:.3f}) is out of bounds")
    if positions and obstacles:
        px = np.array([p[0] for p in positions])
        py = np.array([p[1] for p in positions])
        for k, polygon in enumerate(obstacles):
            for i in np.flatnonzero(interior_mask(px, py, polygon)).tolist():
                problems.append(f"sensor #{i} is inside obstacle {k}")
    return problems


def link_lengths(world) -> List[float]:
    """Lengths of the tree links of every live sensor in the tree."""
    base = world.base_station
    lengths = []
    for node, parent in world.tree.parent.items():
        sensor = world.sensors[node]
        if not sensor.is_alive():
            continue
        anchor = base if parent == BASE_ID else world.sensors[parent].position
        lengths.append(
            math.hypot(sensor.position.x - anchor.x, sensor.position.y - anchor.y)
        )
    return lengths


def check_world(world, record, require_tree: bool) -> Tuple[List[str], int]:
    """Check one finished run; returns ``(problems, overlong_links)``.

    ``require_tree`` makes overlong tree links and a disconnected record
    failures (CPVF preserves both); otherwise overlong links are only
    counted.
    """
    config = world.config
    field = world.field
    alive = [(s.position.x, s.position.y) for s in world.sensors if s.is_alive()]
    obstacles = [
        [(v.x, v.y) for v in obstacle.polygon.vertices] for obstacle in field.obstacles
    ]
    problems = placement_problems(alive, field.width, field.height, obstacles)
    expected = grid_coverage(
        alive,
        config.sensing_range,
        config.coverage_resolution,
        field.width,
        field.height,
        obstacles,
    )
    if abs(expected - record.coverage) > 1e-12:
        problems.append(
            f"reported coverage {record.coverage!r} != recomputed {expected!r}"
        )
    limit = config.communication_range + LINK_EPS
    overlong = sum(1 for length in link_lengths(world) if length > limit)
    if require_tree:
        if overlong:
            problems.append(f"{overlong} tree links longer than rc")
        if not record.connected:
            problems.append("record is not connected")
    return problems, overlong
