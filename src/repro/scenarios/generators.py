"""Procedural field-layout generators.

The Fig 13 random-obstacle layout and four families of obstacle layouts
beyond the paper's hand-written fields, each registered with the scenario
registry (``@register_layout``) so a
:class:`~repro.api.scenario.ScenarioSpec` can name them directly:

* ``random-obstacles`` — the Fig 13 workload: 1-4 random rectangles that
  keep clear of the base station and never partition the field;
* ``maze`` — a perfect maze carved by a recursive backtracker on a coarse
  cell grid, with the uncarved cell boundaries emitted as rectangular
  wall obstacles;
* ``rooms`` — a multi-room floorplan: a grid of rooms separated by walls,
  every wall pierced by one doorway gap;
* ``spiral`` — concentric square corridors whose openings rotate around
  the sides, forcing a spiral path from the field boundary to the centre;
* ``clutter`` — density-parameterised random rectangular clutter, the
  generalisation of ``random-obstacles``: the same rectangle draw repeats
  until a target fraction of the field area is obstructed.

Every generator takes a plain seeded :class:`random.Random` (derived from
its ``seed`` parameter — no numpy state involved) plus size/scale
parameters, and every candidate layout is accepted only by the shared
:class:`~repro.scenarios.validate.ScenarioValidator` (connected free
space, reachable base station, minimum free area) under the bounded retry
of :func:`~repro.scenarios.validate.generate_validated`.  The mazes,
floorplans and spirals are valid by construction — their passages connect
every cell/room/corridor — so the validator is a safety net there; the
random-obstacle and clutter generators genuinely rely on the rejection
loop.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from ..api.registry import register_layout
from ..field import Field, Obstacle
from ..geometry import Vec2
from .validate import ScenarioValidator, generate_validated

__all__ = [
    "random_obstacle_field",
    "maze_field",
    "rooms_field",
    "spiral_field",
    "clutter_field",
]


def _wall(xmin: float, ymin: float, xmax: float, ymax: float, size: float, name: str) -> Obstacle:
    """A wall rectangle clamped into the field (degenerate walls rejected)."""
    xmin, xmax = max(0.0, xmin), min(size, xmax)
    ymin, ymax = max(0.0, ymin), min(size, ymax)
    if xmax - xmin <= 1e-9 or ymax - ymin <= 1e-9:
        raise ValueError("degenerate wall")
    return Obstacle.rectangle(xmin, ymin, xmax, ymax, name=name)


def _append_wall(
    walls: List[Obstacle], xmin: float, ymin: float, xmax: float, ymax: float,
    size: float, name: str,
) -> None:
    try:
        walls.append(_wall(xmin, ymin, xmax, ymax, size, name))
    except ValueError:
        pass


def _random_rectangle(
    rng: random.Random, size: float, min_side: float, max_side: float
) -> Obstacle:
    """Draw one random axis-aligned rectangle inside a ``size`` field."""
    width = rng.uniform(min_side, max_side)
    height = rng.uniform(min_side, max_side)
    xmin = rng.uniform(0.0, size - width)
    ymin = rng.uniform(0.0, size - height)
    return Obstacle.rectangle(xmin, ymin, xmin + width, ymin + height)


def _clears_base_station(obstacle: Obstacle, keep_clear_radius: float) -> bool:
    """Whether the obstacle keeps away from the base station at the origin."""
    return obstacle.distance_to(Vec2(0.0, 0.0)) >= keep_clear_radius


# ----------------------------------------------------------------------
# Fig 13 random obstacles
# ----------------------------------------------------------------------
#: Draws allowed per rectangle (clearance) and per layout (validation).
_RANDOM_OBSTACLE_TRIES = 200


def random_obstacle_field(
    size: float,
    seed: int = 1,
    min_side: Optional[float] = None,
    max_side: Optional[float] = None,
    keep_clear_radius: Optional[float] = None,
    min_obstacles: int = 1,
    max_obstacles: int = 4,
    connectivity_resolution: Optional[float] = None,
) -> Field:
    """A Fig 13 random-obstacle field, fully determined by ``seed``.

    Section 6.4: "We randomly select between 1 and 4 rectangular obstacles
    of random size; these obstacles may overlap with one another, however
    we maintain the condition that the obstacles do not partition the
    field."  Each candidate layout draws ``min_obstacles..max_obstacles``
    rectangles with sides in ``[min_side, max_side]`` (default 8-40 % of
    ``size``); a rectangle is redrawn until it keeps ``keep_clear_radius``
    (default 6 % of ``size``) from the base station.  Candidates that
    partition the free space at ``connectivity_resolution`` are rejected
    and redrawn.  Raises :class:`RuntimeError` when a rectangle or a
    layout runs out of draws.
    """
    if min_side is None:
        min_side = 0.08 * size
    if max_side is None:
        max_side = 0.4 * size
    if keep_clear_radius is None:
        keep_clear_radius = 0.06 * size
    if connectivity_resolution is None:
        connectivity_resolution = max(10.0, size / 40.0)

    def build(rng: random.Random) -> Field:
        obstacles: List[Obstacle] = []
        for _ in range(rng.randint(min_obstacles, max_obstacles)):
            for _ in range(_RANDOM_OBSTACLE_TRIES):
                candidate = _random_rectangle(rng, size, min_side, max_side)
                if _clears_base_station(candidate, keep_clear_radius):
                    obstacles.append(candidate)
                    break
            else:
                raise RuntimeError(
                    f"no obstacle clears the base station by "
                    f"{keep_clear_radius} m within {_RANDOM_OBSTACLE_TRIES} draws"
                )
        return Field(size, size, obstacles)

    validator = ScenarioValidator(
        min_free_fraction=0.0, resolution=connectivity_resolution
    )
    return generate_validated(
        build, seed, validator, max_attempts=_RANDOM_OBSTACLE_TRIES
    )


# ----------------------------------------------------------------------
# Maze
# ----------------------------------------------------------------------
def _carve_maze(rng: random.Random, cells: int) -> Set[Tuple[int, int, int, int]]:
    """Recursive-backtracker spanning tree over a ``cells x cells`` grid.

    Returns the set of carved passages as ordered cell pairs
    ``(i1, j1, i2, j2)`` with ``(i1, j1) < (i2, j2)``.
    """
    carved: Set[Tuple[int, int, int, int]] = set()
    visited = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        ci, cj = stack[-1]
        neighbors = [
            (ci + di, cj + dj)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= ci + di < cells and 0 <= cj + dj < cells
            and (ci + di, cj + dj) not in visited
        ]
        if not neighbors:
            stack.pop()
            continue
        ni, nj = rng.choice(neighbors)
        first, second = sorted(((ci, cj), (ni, nj)))
        carved.add(first + second)
        visited.add((ni, nj))
        stack.append((ni, nj))
    return carved


def maze_field(
    size: float,
    seed: int = 1,
    cells: int = 4,
    wall_fraction: float = 0.12,
) -> Field:
    """A perfect maze on a coarse cell grid (walls between uncarved cells).

    ``cells`` is the maze order (``cells x cells`` rooms), ``wall_fraction``
    the wall thickness relative to the cell span.  The recursive
    backtracker starts at the base-station cell, and the field boundary
    serves as the outer wall, so the free space is a single corridor tree
    containing the origin by construction.
    """
    if cells < 2:
        raise ValueError("a maze needs at least 2x2 cells")
    span = size / cells
    thickness = wall_fraction * span

    def build(rng: random.Random) -> Field:
        carved = _carve_maze(rng, cells)
        walls: List[Obstacle] = []
        half = thickness / 2.0
        for i in range(cells - 1):
            for j in range(cells):
                # Vertical wall between (i, j) and (i + 1, j).
                if (i, j, i + 1, j) not in carved:
                    x = (i + 1) * span
                    _append_wall(
                        walls, x - half, j * span - half, x + half,
                        (j + 1) * span + half, size, f"maze-v{i}-{j}",
                    )
        for i in range(cells):
            for j in range(cells - 1):
                # Horizontal wall between (i, j) and (i, j + 1).
                if (i, j, i, j + 1) not in carved:
                    y = (j + 1) * span
                    _append_wall(
                        walls, i * span - half, y - half,
                        (i + 1) * span + half, y + half, size, f"maze-h{i}-{j}",
                    )
        return Field(size, size, walls)

    return generate_validated(build, seed)


# ----------------------------------------------------------------------
# Multi-room floorplan
# ----------------------------------------------------------------------
def rooms_field(
    size: float,
    seed: int = 1,
    rooms_x: int = 3,
    rooms_y: int = 3,
    wall_fraction: float = 0.08,
    door_fraction: float = 0.3,
) -> Field:
    """A multi-room floorplan: a room grid with one doorway per shared wall.

    Every interior wall between two adjacent rooms is pierced by a doorway
    of width ``door_fraction`` of the wall length at a seeded random
    offset, so all rooms are mutually reachable by construction.
    """
    if rooms_x < 1 or rooms_y < 1:
        raise ValueError("room counts must be positive")
    span_x = size / rooms_x
    span_y = size / rooms_y
    thickness = wall_fraction * min(span_x, span_y)
    half = thickness / 2.0

    def pierced(
        walls: List[Obstacle], rng: random.Random, lo: float, hi: float,
        place, name: str,
    ) -> None:
        """Emit a wall from ``lo`` to ``hi`` with one doorway gap."""
        length = hi - lo
        door = door_fraction * length
        start_max = length - door - 2.0 * half
        offset = rng.uniform(0.0, max(0.0, start_max))
        gap_lo = lo + half + offset
        gap_hi = gap_lo + door
        place(walls, lo - half, gap_lo, f"{name}a")
        place(walls, gap_hi, hi + half, f"{name}b")

    def build(rng: random.Random) -> Field:
        walls: List[Obstacle] = []
        for i in range(1, rooms_x):
            x = i * span_x
            for j in range(rooms_y):
                pierced(
                    walls, rng, j * span_y, (j + 1) * span_y,
                    lambda ws, lo, hi, name: _append_wall(
                        ws, x - half, lo, x + half, hi, size, name
                    ),
                    f"room-v{i}-{j}",
                )
        for j in range(1, rooms_y):
            y = j * span_y
            for i in range(rooms_x):
                pierced(
                    walls, rng, i * span_x, (i + 1) * span_x,
                    lambda ws, lo, hi, name: _append_wall(
                        ws, lo, y - half, hi, y + half, size, name
                    ),
                    f"room-h{j}-{i}",
                )
        return Field(size, size, walls)

    return generate_validated(build, seed)


# ----------------------------------------------------------------------
# Spiral corridors
# ----------------------------------------------------------------------
def spiral_field(
    size: float,
    seed: int = 1,
    rings: int = 2,
    wall_fraction: float = 0.2,
) -> Field:
    """Concentric square corridors with openings rotating around the sides.

    Ring ``k`` is a square wall band inset ``k * pitch`` from the field
    boundary (``pitch = size / (2 * (rings + 1))``) with one opening on
    side ``k % 4``; walking from the boundary to the centre therefore
    spirals through every corridor.  The base station's corner lies
    outside the outermost ring and reaches the centre through the
    openings by construction.
    """
    if rings < 1:
        raise ValueError("a spiral needs at least one ring")
    pitch = size / (2.0 * (rings + 1))
    thickness = wall_fraction * pitch

    def build(rng: random.Random) -> Field:
        walls: List[Obstacle] = []
        for k in range(1, rings + 1):
            inset = k * pitch
            lo, hi = inset, size - inset
            opening = max(pitch - thickness, 4.0 * thickness)
            side = (k - 1) % 4
            # A seeded jitter keeps the opening away from the ring corners.
            extent = hi - lo - 2.0 * thickness - opening
            offset = lo + thickness + rng.uniform(0.0, max(0.0, extent))
            # Side bands: 0 = bottom, 1 = right, 2 = top, 3 = left; the
            # opening splits its band in two.
            bands = {
                0: (lo, lo, hi, lo + thickness),
                1: (hi - thickness, lo + thickness, hi, hi - thickness),
                2: (lo, hi - thickness, hi, hi),
                3: (lo, lo + thickness, lo + thickness, hi - thickness),
            }
            for b, (xmin, ymin, xmax, ymax) in bands.items():
                name = f"spiral-{k}-{b}"
                if b != side:
                    _append_wall(walls, xmin, ymin, xmax, ymax, size, name)
                    continue
                if b in (0, 2):  # horizontal band: split along x
                    _append_wall(walls, xmin, ymin, offset, ymax, size, name + "a")
                    _append_wall(
                        walls, offset + opening, ymin, xmax, ymax, size, name + "b"
                    )
                else:  # vertical band: split along y
                    _append_wall(walls, xmin, ymin, xmax, offset, size, name + "a")
                    _append_wall(
                        walls, xmin, offset + opening, xmax, ymax, size, name + "b"
                    )
        return Field(size, size, walls)

    return generate_validated(build, seed)


# ----------------------------------------------------------------------
# Random clutter at a target density
# ----------------------------------------------------------------------
def clutter_field(
    size: float,
    seed: int = 1,
    density: float = 0.12,
    min_side_fraction: float = 0.05,
    max_side_fraction: float = 0.22,
    keep_clear_fraction: float = 0.08,
    max_obstacles: int = 64,
) -> Field:
    """Random rectangular clutter filling ``density`` of the field area.

    The density generalisation of :func:`random_obstacle_field`: instead
    of a fixed 1-4 obstacle count, rectangles (drawn by the same primitive,
    possibly overlapping, always clear of the base station) accumulate
    until their summed area reaches ``density`` of the field.  Layouts that disconnect
    the free space are rejected and redrawn by the shared validator loop.
    """
    if not 0.0 <= density < 1.0:
        raise ValueError("density must be in [0, 1)")
    min_side = min_side_fraction * size
    max_side = max_side_fraction * size
    keep_clear_radius = keep_clear_fraction * size
    target_area = density * size * size

    def build(rng: random.Random) -> Field:
        obstacles: List[Obstacle] = []
        accumulated = 0.0
        attempts = 0
        while accumulated < target_area and len(obstacles) < max_obstacles:
            attempts += 1
            if attempts > 50 * max_obstacles:
                break  # clearance keeps rejecting; validate what we have
            candidate = _random_rectangle(rng, size, min_side, max_side)
            if not _clears_base_station(candidate, keep_clear_radius):
                continue
            obstacles.append(candidate)
            accumulated += candidate.area()
        return Field(size, size, obstacles)

    return generate_validated(build, seed)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
register_layout("random-obstacles")(random_obstacle_field)
register_layout("maze")(maze_field)
register_layout("rooms")(rooms_field)
register_layout("spiral")(spiral_field)
register_layout("clutter")(clutter_field)
