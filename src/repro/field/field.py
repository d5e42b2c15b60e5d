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
from itertools import chain
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
#: :meth:`Field.boundary_pieces_within` skips a wall edge or an obstacle
#: whose box lies more than ``radius + _PIECE_SLACK`` from the disk centre
#: on either axis.  A clipped piece lies on an edge within the disk's
#: ``EPS`` (1e-9) tolerance, or at an edge end where a crossing up to
#: ``EPS`` of the edge's length beyond it is clamped; the slack is far
#: above both and the crossing's float rounding.
_PIECE_SLACK = 1e-3


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
        #: Per edge of the field rectangle, its box and itself as
        #: ``(xmin, ymin, xmax, ymax, ((ax, ay, bx, by),))``: the shape of
        #: the obstacles' entries in :meth:`boundary_pieces_within`.
        self._wall_edges = tuple(
            (
                min(e.a.x, e.b.x),
                min(e.a.y, e.b.y),
                max(e.a.x, e.b.x),
                max(e.a.y, e.b.y),
                ((e.a.x, e.a.y, e.b.x, e.b.y),),
            )
            for e in self._boundary.edges()
        )
        #: :meth:`obstacle_table`, and per obstacle its reject box and
        #: edges' ``(ax, ay, bx, by)``: both built on first use after each
        #: obstacle mutation.
        self._obstacle_table: Optional[tuple] = None
        self._obstacle_edges: Optional[tuple] = None
        #: Bumped on every obstacle mutation; consumers caching rasterised
        #: masks or visibility answers key their epochs on it.
        self.version: int = 0
        #: ``(xmin, ymin, xmax, ymax, added)`` of the obstacle each version
        #: bump added (``added`` true) or removed: its polygon's reject
        #: box.  Entry ``v`` is the change that took the version from
        #: ``v`` to ``v + 1``.
        self._journal: List[Tuple[float, float, float, float, bool]] = []

    # ------------------------------------------------------------------
    # Obstacle mutation (lifecycle events)
    # ------------------------------------------------------------------
    def add_obstacle(self, obstacle: Obstacle) -> int:
        """Append an obstacle mid-run (e.g. a door closing); returns its index."""
        self.obstacles.append(obstacle)
        self._changed(obstacle, True)
        return len(self.obstacles) - 1

    def remove_obstacle(self, index: int) -> Obstacle:
        """Remove the obstacle at ``index`` (e.g. a door re-opening)."""
        removed = self.obstacles.pop(index)
        self._changed(removed, False)
        return removed

    def _changed(self, obstacle: Obstacle, added: bool) -> None:
        self._journal.append((*obstacle.polygon.reject_box(), added))
        self._grid_cache.clear()
        self._obstacle_table = None
        self._obstacle_edges = None
        self.version += 1

    def changes_since(
        self, version: int
    ) -> List[Tuple[float, float, float, float, bool]]:
        """``(xmin, ymin, xmax, ymax, added)`` of every obstacle added or
        removed since ``version``, in order: the reject box of its
        polygon (see :meth:`obstacle_table`).

        A point query outside every box listed answers as it did at
        ``version``.
        """
        return self._journal[version:]

    def obstacle_table(self) -> Tuple[Tuple[float, float, float, float, Polygon], ...]:
        """``(xmin, ymin, xmax, ymax, polygon)`` per obstacle, in list
        order: the polygon's reject box (no point outside it is inside
        the polygon or on its boundary) and the polygon.

        Built once per :attr:`version`.  The point, move and force
        queries test the boxes inline and call a polygon predicate only
        for an obstacle whose box the query reaches: any other obstacle
        answers from its predicate's own reject.
        """
        table = self._obstacle_table
        if table is None:
            table = self._obstacle_table = tuple(
                (*ob.polygon.reject_box(), ob.polygon) for ob in self.obstacles
            )
        return table

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    def boundary_polygon(self) -> Polygon:
        """The field rectangle as a polygon."""
        return self._boundary

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
        table = self._obstacle_table
        if table is None:
            table = self.obstacle_table()
        for xmin, ymin, xmax, ymax, polygon in table:
            if (
                xmin <= x <= xmax
                and ymin <= y <= ymax
                and polygon.contains_xy(x, y, False)
            ):
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
        ``clamp(candidate + Vec2.from_polar(radius, angle))``.  A clamped
        point is in the field, so each probe is :meth:`is_free_xy`'s
        obstacle loop alone.
        """
        width, height = self.width, self.height
        cx = min(width, max(0.0, p.x))
        cy = min(height, max(0.0, p.y))
        if self.is_free_xy(cx, cy):
            return Vec2(cx, cy)
        table = self.obstacle_table()
        radius = step
        while radius <= max_radius:
            for cos_k, sin_k in _SPIRAL_DIRECTIONS:
                qx = min(width, max(0.0, cx + radius * cos_k))
                qy = min(height, max(0.0, cy + radius * sin_k))
                for xmin, ymin, xmax, ymax, polygon in table:
                    if (
                        xmin <= qx <= xmax
                        and ymin <= qy <= ymax
                        and polygon.contains_xy(qx, qy, False)
                    ):
                        break
                else:
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
        table = self._obstacle_table
        if table is None:
            table = self.obstacle_table()
        lox, hix = (ax, bx) if ax <= bx else (bx, ax)
        loy, hiy = (ay, by) if ay <= by else (by, ay)
        for xmin, ymin, xmax, ymax, polygon in table:
            if (
                hix >= xmin
                and lox <= xmax
                and hiy >= ymin
                and loy <= ymax
                and polygon.crosses_interior_xy(ax, ay, bx, by)
            ):
                return True
        return False

    def max_free_travel(
        self, x: float, y: float, dir_x: float, dir_y: float, distance: float
    ) -> float:
        """Longest prefix of a straight move that stays in free space.

        Returns the travel ``d <= distance`` along ``(dir_x, dir_y)`` from
        ``(x, y)`` at which the move first leaves the field rectangle
        (a slab clip) or enters an obstacle's interior
        (:meth:`Polygon.first_entry_xy`), or the whole ``distance``.  The
        end point, ``x + dir_x / hypot(dir_x, dir_y) * d`` and likewise
        for ``y``, is free and the segment to it crosses no interior:
        where rounding puts it past a wall or into an interior, ``d``
        moves back until it does not.  Used by the virtual-force
        integrator to avoid stepping into obstacles or out of the field.

        Only an obstacle whose reject box meets the whole move's box can
        stop the move; those are picked once per call.
        """
        if distance <= 0:
            return 0.0
        norm = math.hypot(dir_x, dir_y)
        if norm <= 1e-9:
            return 0.0
        unit_x, unit_y = dir_x / norm, dir_y / norm
        width, height = self.width, self.height
        if not (0.0 <= x <= width and 0.0 <= y <= height):
            # Every path from an out-of-bounds start is blocked.
            return 0.0
        travel = distance
        if unit_x:
            wall = ((width if unit_x > 0.0 else 0.0) - x) / unit_x
            if wall < travel:
                travel = wall
        if unit_y:
            wall = ((height if unit_y > 0.0 else 0.0) - y) / unit_y
            if wall < travel:
                travel = wall
        near: List[Polygon] = []
        if self.obstacles:
            ex, ey = x + unit_x * distance, y + unit_y * distance
            lox, hix = (x, ex) if x <= ex else (ex, x)
            loy, hiy = (y, ey) if y <= ey else (ey, y)
            near = [
                polygon
                for xmin, ymin, xmax, ymax, polygon in self.obstacle_table()
                if hix >= xmin and lox <= xmax and hiy >= ymin and loy <= ymax
            ]
            for polygon in near:
                t = polygon.first_entry_xy(x, y, ex, ey)
                if t is not None and t * distance < travel:
                    travel = t * distance
        # A few units in the last place of the coordinates: the first
        # step back undoes the end point's rounding.
        back = (abs(x) + abs(y) + travel) * 2.0**-44
        while travel > 0.0:
            fx, fy = x + unit_x * travel, y + unit_y * travel
            if 0.0 <= fx <= width and 0.0 <= fy <= height:
                for polygon in near:
                    if polygon.contains_xy(fx, fy, False) or (
                        travel < distance
                        and polygon.first_entry_xy(x, y, fx, fy) is not None
                    ):
                        break
                else:
                    return travel
            travel -= back
            back *= 2.0
        return 0.0

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
        dropped.  A wall edge or an obstacle whose box (an obstacle's
        reject box) the disk does not reach (within :data:`_PIECE_SLACK`)
        has no piece and is skipped.
        """
        obstacle_edges = self._obstacle_edges
        if obstacle_edges is None:
            obstacle_edges = self._obstacle_edges = tuple(
                (
                    *ob.polygon.reject_box(),
                    tuple((e.a.x, e.a.y, e.b.x, e.b.y) for e in ob.boundary_edges()),
                )
                for ob in self.obstacles
            )
        pieces: List[Tuple[float, float, float, float]] = []
        reach = radius + _PIECE_SLACK
        for xmin, ymin, xmax, ymax, edges in chain(self._wall_edges, obstacle_edges):
            if (
                xmin - cx <= reach
                and cx - xmax <= reach
                and ymin - cy <= reach
                and cy - ymax <= reach
            ):
                _clip_into(pieces, cx, cy, radius, edges)
        return pieces

    def boundary_pieces_reach(
        self, cx: float, cy: float, radius: float
    ) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the box that every obstacle
        with a piece in :meth:`boundary_pieces_within` of the same disk
        reaches: adding or removing an obstacle whose reject box misses
        it (by more than float rounding) leaves the pieces as they are."""
        reach = radius + _PIECE_SLACK
        return (cx - reach, cy - reach, cx + reach, cy + reach)

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
        ``Obstacle.contains`` makes point by point.  Any other polygon
        classifies the points inside its bounding box one by one.
        """
        px, py = grid.point_arrays()
        mask = np.zeros(grid.num_points, dtype=bool)
        eps = 1e-7  # Polygon._BOUNDARY_EPS: the boundary is not interior
        for ob in self.obstacles:
            polygon = ob.polygon
            box = polygon.axis_aligned_box()
            if box is not None:
                xmin, ymin, xmax, ymax = box
                mask |= (
                    (px - xmin > eps)
                    & (xmax - px > eps)
                    & (py - ymin > eps)
                    & (ymax - py > eps)
                )
                continue
            xmin, ymin, xmax, ymax = polygon.bounding_box()
            near = np.flatnonzero(
                (px >= xmin - eps)
                & (px <= xmax + eps)
                & (py >= ymin - eps)
                & (py <= ymax + eps)
            )
            for i in near:
                if polygon.contains_xy(float(px[i]), float(py[i]), False):
                    mask[i] = True
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


def _clip_into(
    pieces: List[Tuple[float, float, float, float]],
    cx: float,
    cy: float,
    radius: float,
    edges: Tuple[Tuple[float, float, float, float], ...],
) -> None:
    """Append the part of each edge inside the disk that is longer than
    1e-9 to ``pieces``, in edge order."""
    for ax, ay, bx, by in edges:
        piece = clip_segment_xy(cx, cy, radius, ax, ay, bx, by)
        if piece is not None and (
            math.hypot(piece[0] - piece[2], piece[1] - piece[3]) > 1e-9
        ):
            pieces.append(piece)
