"""The sensing field: a bounded rectangle with polygonal obstacles.

The field is the environment every scheme operates in.  It answers the
queries the paper's sensors are allowed to make:

* a sensor knows the boundary of the *field* (Section 3.1);
* a sensor can recognise the boundary of any obstacle *within its sensing
  range* (Section 3.1) — :meth:`Field.boundary_pieces_within`;
* motion is blocked by obstacles and by the field boundary.

The field also provides the coverage-measurement machinery used by the
evaluation (fraction of non-obstacle area covered by at least one sensing
disk) and the cached obstacle raster the scenario validator floods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import CoverageGrid, Polygon, Segment, Vec2, clip_segment_xy
from .obstacles import Obstacle

__all__ = ["Field"]

#: ``(cos, sin)`` of the 16 directions of :meth:`Field.nearest_free`'s
#: spiral, angle ``2 * pi * k / 16``.
_SPIRAL_DIRECTIONS = tuple(
    (math.cos(2.0 * math.pi * k / 16), math.sin(2.0 * math.pi * k / 16))
    for k in range(16)
)


@dataclass
class Field:
    """A rectangular sensing field ``[0, width] x [0, height]`` with obstacles."""

    width: float
    height: float
    obstacles: List[Obstacle] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("field dimensions must be positive")
        self._grid_cache: dict[float, Tuple[CoverageGrid, np.ndarray]] = {}
        # Built once: ``width`` and ``height`` are fixed for the field's life.
        self._boundary = Polygon.rectangle(0.0, 0.0, self.width, self.height)
        #: ``(ax, ay, bx, by)`` of every field and obstacle edge, built on
        #: first use after each obstacle mutation.
        self._boundary_edge_data: Optional[tuple] = None
        #: Bumped on every obstacle mutation; consumers caching rasterised
        #: masks or visibility answers key their epochs on it.
        self.version: int = 0

    # ------------------------------------------------------------------
    # Obstacle mutation (lifecycle events)
    # ------------------------------------------------------------------
    def add_obstacle(self, obstacle: Obstacle) -> int:
        """Append an obstacle mid-run (e.g. a door closing); returns its index."""
        self.obstacles.append(obstacle)
        self._invalidate_obstacle_caches()
        return len(self.obstacles) - 1

    def remove_obstacle(self, index: int) -> Obstacle:
        """Remove the obstacle at ``index`` (e.g. a door re-opening)."""
        removed = self.obstacles.pop(index)
        self._invalidate_obstacle_caches()
        return removed

    def _invalidate_obstacle_caches(self) -> None:
        self._grid_cache.clear()
        self._boundary_edge_data = None
        self.version += 1

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the field rectangle."""
        return (0.0, 0.0, self.width, self.height)

    def boundary_polygon(self) -> Polygon:
        """The field rectangle as a polygon."""
        return self._boundary

    def boundary_edges(self) -> Tuple[Segment, ...]:
        """The four edges of the field rectangle."""
        return self._boundary.edges()

    def area(self) -> float:
        """Total rectangle area (including obstacle area)."""
        return self.width * self.height

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def in_obstacle(self, p: Vec2) -> bool:
        """Whether ``p`` lies strictly inside some obstacle."""
        return any(ob.contains(p) for ob in self.obstacles)

    def is_free(self, p: Vec2) -> bool:
        """Whether ``p`` is a valid sensor position (in bounds, not in an obstacle)."""
        return self.is_free_xy(p.x, p.y)

    def is_free_xy(self, x: float, y: float) -> bool:
        """:meth:`is_free` for the point ``(x, y)``."""
        if not (0.0 <= x <= self.width and 0.0 <= y <= self.height):
            return False
        for ob in self.obstacles:
            if ob.polygon.contains_xy(x, y, include_boundary=False):
                return False
        return True

    def clamp(self, p: Vec2) -> Vec2:
        """Project ``p`` back inside the field rectangle."""
        return Vec2(
            min(self.width, max(0.0, p.x)),
            min(self.height, max(0.0, p.y)),
        )

    def nearest_free(self, p: Vec2, step: float = 1.0, max_radius: float = 200.0) -> Vec2:
        """A free point near ``p`` (spiral search); ``p`` itself when free.

        Rings of 16 points at radius ``step``, ``2 * step``, ... around
        the clamped ``p``, each point clamped into the field; the first
        free one wins.  Runs on floats in the operation order of
        ``clamp(candidate + Vec2.from_polar(radius, angle))``.
        """
        width, height = self.width, self.height
        cx = min(width, max(0.0, p.x))
        cy = min(height, max(0.0, p.y))
        is_free_xy = self.is_free_xy
        if is_free_xy(cx, cy):
            return Vec2(cx, cy)
        radius = step
        while radius <= max_radius:
            for cos_k, sin_k in _SPIRAL_DIRECTIONS:
                qx = min(width, max(0.0, cx + radius * cos_k))
                qy = min(height, max(0.0, cy + radius * sin_k))
                if is_free_xy(qx, qy):
                    return Vec2(qx, qy)
            radius += step
        return Vec2(cx, cy)

    # ------------------------------------------------------------------
    # Motion queries
    # ------------------------------------------------------------------
    def segment_blocked(self, seg: Segment) -> bool:
        """Whether moving straight along ``seg`` is blocked.

        A move is blocked when it leaves the field rectangle or crosses the
        interior of any obstacle.
        """
        a, b = seg.a, seg.b
        return self.segment_blocked_xy(a.x, a.y, b.x, b.y)

    def segment_blocked_xy(self, ax: float, ay: float, bx: float, by: float) -> bool:
        """:meth:`segment_blocked` for the move ``(ax, ay)`` -> ``(bx, by)``."""
        width, height = self.width, self.height
        if not (
            0.0 <= ax <= width
            and 0.0 <= ay <= height
            and 0.0 <= bx <= width
            and 0.0 <= by <= height
        ):
            return True
        # Both endpoints being inside the convex rectangle already
        # guarantees the whole segment is, so only obstacles remain.
        for ob in self.obstacles:
            if ob.polygon.crosses_interior_xy(ax, ay, bx, by):
                return True
        return False

    def max_free_travel(
        self, x: float, y: float, dir_x: float, dir_y: float, distance: float
    ) -> float:
        """Longest prefix of a straight move that stays in free space.

        Returns a travel distance ``d <= distance`` such that the point
        ``d`` along ``(dir_x, dir_y)`` from ``(x, y)`` is free and the
        path to it does not cross an obstacle: the whole ``distance`` when
        that is admissible, else the result of a 24-step bisection.  Used
        by the virtual-force integrator to avoid stepping into obstacles
        or out of the field.
        """
        if distance <= 0:
            return 0.0
        norm = math.hypot(dir_x, dir_y)
        if norm <= 1e-9:
            return 0.0
        unit_x, unit_y = dir_x / norm, dir_y / norm
        if not (0.0 <= x <= self.width and 0.0 <= y <= self.height):
            # Every path from an out-of-bounds start is blocked.
            return 0.0
        admissible = self._admissible_move
        if admissible(x, y, x + unit_x * distance, y + unit_y * distance):
            return distance
        lo, hi = 0.0, distance
        for _ in range(24):
            mid = (lo + hi) / 2.0
            if admissible(x, y, x + unit_x * mid, y + unit_y * mid):
                lo = mid
            else:
                hi = mid
        return lo

    def _admissible_move(self, x: float, y: float, ex: float, ey: float) -> bool:
        """Whether the straight move from the in-bounds ``(x, y)`` to
        ``(ex, ey)`` ends in free space and crosses no obstacle: the
        answer of ``is_free_xy(ex, ey) and not segment_blocked_xy(x, y,
        ex, ey)``.  The field rectangle is convex, so an in-bounds end
        keeps the whole move inside it."""
        if not (0.0 <= ex <= self.width and 0.0 <= ey <= self.height):
            return False
        for ob in self.obstacles:
            polygon = ob.polygon
            if polygon.contains_xy(
                ex, ey, include_boundary=False
            ) or polygon.crosses_interior_xy(x, y, ex, ey):
                return False
        return True

    # ------------------------------------------------------------------
    # Sensing-range boundary queries (used by FLOOR's BLG expansion)
    # ------------------------------------------------------------------
    def boundary_pieces_within(
        self, cx: float, cy: float, radius: float
    ) -> List[Tuple[float, float, float, float]]:
        """Obstacle/field boundary portions inside a sensing disk.

        The paper assumes a sensor "can recognize the boundary of the
        obstacles within its sensing range" and knows the field boundary;
        this method returns exactly those visible boundary pieces, clipped
        to the disk of ``radius`` around ``(cx, cy)``, as
        ``(ax, ay, bx, by)``: the field rectangle's edges first, then each
        obstacle's in vertex order.  Pieces of length 1e-9 or less are
        dropped.
        """
        if self._boundary_edge_data is None:
            edges = list(self.boundary_edges())
            for ob in self.obstacles:
                edges.extend(ob.boundary_edges())
            self._boundary_edge_data = tuple(
                (e.a.x, e.a.y, e.b.x, e.b.y) for e in edges
            )
        pieces: List[Tuple[float, float, float, float]] = []
        for ax, ay, bx, by in self._boundary_edge_data:
            piece = clip_segment_xy(cx, cy, radius, ax, ay, bx, by)
            if piece is not None and (
                math.hypot(piece[0] - piece[2], piece[1] - piece[3]) > 1e-9
            ):
                pieces.append(piece)
        return pieces

    # ------------------------------------------------------------------
    # Coverage measurement
    # ------------------------------------------------------------------
    def grid_and_obstacle_mask(
        self, resolution: float = 10.0
    ) -> Tuple[CoverageGrid, np.ndarray]:
        """A coverage grid over the field plus the mask of obstacle points.

        The pair is cached per resolution because the obstacle mask is
        relatively expensive and reused every time coverage is measured.
        """
        cached = self._grid_cache.get(resolution)
        if cached is not None:
            return cached
        grid = CoverageGrid(0.0, 0.0, self.width, self.height, resolution)
        if self.obstacles:
            obstacle_mask = self._rasterize_obstacles(grid)
        else:
            obstacle_mask = np.zeros(grid.num_points, dtype=bool)
        self._grid_cache[resolution] = (grid, obstacle_mask)
        return grid, obstacle_mask

    def _rasterize_obstacles(self, grid: CoverageGrid) -> np.ndarray:
        """Obstacle mask over the grid points.

        Axis-aligned rectangles (every canonical layout and generator) are
        rasterised with four vectorised comparisons: a grid point is
        interior exactly when it clears all four edges by more than the
        polygon's boundary epsilon, the same classification
        ``Obstacle.contains`` makes point by point.  Arbitrary polygons go
        through the vectorised ray-cast (``Obstacle.contains_points``),
        restricted to the points inside the polygon's bounding box; parity
        with the per-point predicate scan is pinned by
        ``tests/field/test_rasterize_parity.py``.
        """
        px, py = grid.point_arrays()
        mask = np.zeros(grid.num_points, dtype=bool)
        eps = 1e-7  # Polygon._BOUNDARY_EPS: the boundary is not interior
        for ob in self.obstacles:
            box = ob.axis_aligned_box()
            if box is not None:
                xmin, ymin, xmax, ymax = box
                mask |= (
                    (px - xmin > eps)
                    & (xmax - px > eps)
                    & (py - ymin > eps)
                    & (ymax - py > eps)
                )
                continue
            xmin, ymin, xmax, ymax = ob.bounding_box()
            near = (
                (px >= xmin - eps)
                & (px <= xmax + eps)
                & (py >= ymin - eps)
                & (py <= ymax + eps)
            )
            if near.any():
                mask[near] |= ob.contains_points(px[near], py[near])
        return mask

    def coverage_fraction(
        self,
        positions: Iterable[Vec2],
        sensing_range: float,
        resolution: float = 10.0,
    ) -> float:
        """Fraction of the non-obstacle field area covered by sensing disks."""
        grid, obstacle_mask = self.grid_and_obstacle_mask(resolution)
        centers = [p.as_tuple() for p in positions]
        covered = grid.coverage_mask(centers, sensing_range)
        free = ~obstacle_mask
        return grid.fraction(covered & free, domain=free)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def with_obstacles(self, obstacles: Sequence[Obstacle]) -> "Field":
        """A copy of this field with a different obstacle list."""
        return Field(self.width, self.height, list(obstacles))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Field({self.width:g} x {self.height:g}, "
            f"{len(self.obstacles)} obstacles)"
        )
