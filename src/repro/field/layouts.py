"""Canonical field layouts used by the paper's evaluation.

Section 4.3 / 6 of the paper fixes a 1000 x 1000 m field with the base
station at the origin and sensors initially clustered in the lower-left
500 x 500 m quadrant.  Figures 3(c) and 8(c) add two rectangular obstacles
that leave three exits toward the large vacant area.  The exact obstacle
coordinates are not given in the paper, so this module defines a layout that
matches the described topology: two long rectangles separating the initial
cluster area from the rest of the field, with two wide exits at the top and
one narrow exit at the bottom.
"""

from __future__ import annotations

from typing import List

from ..geometry import Vec2
from .field import Field
from .obstacles import Obstacle

__all__ = [
    "FIELD_SIZE",
    "CLUSTER_SIZE",
    "obstacle_free_field",
    "two_obstacle_field",
    "corridor_field",
    "clustered_initial_positions",
    "uniform_initial_positions",
    "clustered_placement",
    "uniform_placement",
]

#: Side length of the square sensing field used throughout the evaluation.
FIELD_SIZE = 1000.0

#: Side length of the lower-left square in which sensors start clustered.
CLUSTER_SIZE = 500.0


def obstacle_free_field(size: float = FIELD_SIZE) -> Field:
    """The obstacle-free field of Figures 3(a,b) / 8(a,b) and Figs 9-12."""
    return Field(size, size)


def two_obstacle_field(size: float = FIELD_SIZE) -> Field:
    """The two-obstacle field of Figures 3(c) / 8(c) and Table 1.

    Two rectangular obstacles wall off the initial cluster quadrant, leaving
    three exits: two at the top (on either side of the upper obstacle) and a
    narrow one near the bottom-right corner of the cluster area.
    """
    scale = size / FIELD_SIZE
    upper = Obstacle.rectangle(
        100.0 * scale, 560.0 * scale, 520.0 * scale, 620.0 * scale, name="upper"
    )
    right = Obstacle.rectangle(
        560.0 * scale, 80.0 * scale, 620.0 * scale, 520.0 * scale, name="right"
    )
    return Field(size, size, [upper, right])


def corridor_field(size: float = FIELD_SIZE) -> Field:
    """A field with a narrow corridor, used by tests and examples.

    The corridor stresses the boundary-guided expansion of FLOOR and the
    oscillation behaviour of CPVF in "narrow or bumpy passages"
    (Section 4.4).
    """
    scale = size / FIELD_SIZE
    lower_wall = Obstacle.rectangle(
        300.0 * scale, 0.0, 360.0 * scale, 450.0 * scale, name="lower-wall"
    )
    upper_wall = Obstacle.rectangle(
        300.0 * scale, 550.0 * scale, 360.0 * scale, size, name="upper-wall"
    )
    return Field(size, size, [lower_wall, upper_wall])


def _free_draws(count: int, rng, width: float, height: float, field) -> List[Vec2]:
    """``count`` positions uniformly random in ``[0, width] x [0, height]``.

    Positions falling inside an obstacle are re-drawn, matching the paper's
    requirement that sensors start in the free space of the field.
    """
    positions: List[Vec2] = []
    attempts = 0
    while len(positions) < count:
        p = Vec2(rng.uniform(0.0, width), rng.uniform(0.0, height))
        attempts += 1
        if field is not None and not field.is_free(p):
            if attempts > 100 * max(1, count):
                raise RuntimeError("could not place sensors outside obstacles")
            continue
        positions.append(p)
    return positions


def clustered_initial_positions(
    count: int,
    rng,
    cluster_size: float = CLUSTER_SIZE,
    field: Field | None = None,
) -> List[Vec2]:
    """Initial positions uniformly random in the lower-left cluster square."""
    return _free_draws(count, rng, cluster_size, cluster_size, field)


def uniform_initial_positions(
    count: int, rng, field: Field
) -> List[Vec2]:
    """Initial positions uniformly random over the whole free field."""
    return _free_draws(count, rng, field.width, field.height, field)


def clustered_placement(
    config, field: Field, rng, cluster_fraction: float = 0.5
) -> List[Vec2]:
    """The paper's clustered start: uniform in the lower-left square.

    The placement strategy registered as ``clustered`` and the default of
    :meth:`~repro.sim.world.World.create`.  The cluster square scales with
    the field (half the side by default) so reduced-scale runs keep the
    paper's geometry.
    """
    return clustered_initial_positions(
        config.sensor_count,
        rng,
        cluster_size=field.width * cluster_fraction,
        field=field,
    )


def uniform_placement(config, field: Field, rng) -> List[Vec2]:
    """Uniformly random over the whole free field (registered ``uniform``)."""
    return uniform_initial_positions(config.sensor_count, rng, field)
