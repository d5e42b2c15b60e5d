"""Virtual-force computation.

The virtual-force (VF) method imitates electro-magnetic repulsion: sensors
that are too close push each other apart, and obstacles and the field
boundary push sensors away.  In CPVF the force vector is used *only to pick
the direction* of the next step; the step size is chosen separately under
the connectivity-preserving conditions (Section 4.2 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..field import Field
from ..geometry import EPS

__all__ = ["VirtualForceModel"]


def _unit(x: float, y: float) -> Tuple[float, float]:
    """``Vec2(x, y).normalized()`` as floats (zero at numerical zero length)."""
    n = math.hypot(x, y)
    if n <= EPS:
        return 0.0, 0.0
    return x / n, y / n


@dataclass
class VirtualForceModel:
    """Computes the resultant virtual force on a sensor.

    Parameters
    ----------
    repulsion_distance:
        Pairwise distance below which two sensors repel each other.  The
        natural choice for coverage maximisation is ``2 * rs`` (sensing
        disks stop overlapping beyond it), which is the library default set
        by the CPVF scheme.
    obstacle_distance:
        Distance below which obstacles and the field boundary repel a
        sensor; defaults to the sensing range so a sensor reacts only to
        obstacles it can actually perceive (Section 3.1).
    sensor_gain / obstacle_gain:
        Relative strengths of the two force families.  Only the direction of
        the resultant matters to CPVF, but the gains control how strongly
        obstacle avoidance competes with dispersion.
    """

    repulsion_distance: float
    obstacle_distance: float
    sensor_gain: float = 1.0
    obstacle_gain: float = 1.0

    # ------------------------------------------------------------------
    # Obstacle and boundary terms
    # ------------------------------------------------------------------
    def force_from_obstacles(
        self, px: float, py: float, field: Field
    ) -> Tuple[float, float]:
        """Repulsive force ``(fx, fy)`` on a sensor at ``(px, py)`` from
        obstacles and the field boundary.

        An obstacle is skipped when the position lies at least
        ``obstacle_distance`` outside its padded reject box on either axis:
        the position is then not inside it, and its boundary distance is
        never smaller than that axis gap, so it exerts no force.
        """
        reach = self.obstacle_distance
        gain = self.obstacle_gain
        force_x = force_y = 0.0
        # Obstacle repulsion: away from the nearest boundary point of each
        # obstacle that is within perception range.
        for xmin, ymin, xmax, ymax, polygon in field.obstacle_table():
            if (
                xmin - px >= reach
                or px - xmax >= reach
                or ymin - py >= reach
                or py - ymax >= reach
            ):
                continue
            dist, cx, cy = polygon.nearest_boundary_xy(px, py)
            if polygon.contains_xy(px, py, include_boundary=False):
                # Inside an obstacle (should not normally happen): push hard
                # toward the nearest boundary point to escape.
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
        # Field boundary repulsion: keep sensors inside the rectangle.
        wall_x, wall_y = self.boundary_force_xy(px, py, field.width, field.height)
        return force_x + wall_x, force_y + wall_y

    def boundary_force_xy(
        self, px: float, py: float, width: float, height: float
    ) -> Tuple[float, float]:
        """Wall-repulsion components in plain floats.

        The single implementation of the four wall terms, shared by
        :meth:`force_from_obstacles` and CPVF's obstacle-free force loop;
        keeping one copy guarantees the two force evaluations agree at the
        field boundary.
        """
        force_x = 0.0
        force_y = 0.0
        d = self.obstacle_distance
        if d <= 0:
            return force_x, force_y
        if px < d:
            force_x += self.obstacle_gain * (d - px) / d
        if width - px < d:
            force_x += -self.obstacle_gain * (d - (width - px)) / d
        if py < d:
            force_y += self.obstacle_gain * (d - py) / d
        if height - py < d:
            force_y += -self.obstacle_gain * (d - (height - py)) / d
        return force_x, force_y

    # ------------------------------------------------------------------
    # Batch evaluation (CPVF hot path)
    # ------------------------------------------------------------------
    def sensor_force_sums(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Summed pairwise sensor forces for many sensors at once.

        ``rows[k]`` feels the repulsion of ``cols[k]``; the returned arrays
        hold, per sensor index, the x and y components of the summed
        neighbour forces.  Magnitude falls linearly from ``sensor_gain`` at
        distance zero to zero at ``repulsion_distance``, and coincident
        pairs get a fixed push along +x.  Contributions accumulate in
        ``rows``-major order (``np.bincount`` adds sequentially), like the
        scalar loop of the seed oracle in ``tests/oracles``.
        """
        n = len(xs)
        if rows.size == 0:
            zero = np.zeros(n)
            return zero, zero.copy()
        dx = xs[rows] - xs[cols]
        dy = ys[rows] - ys[cols]
        dist = np.hypot(dx, dy)
        near = dist < self.repulsion_distance
        rows_n, dx_n, dy_n, dist_n = rows[near], dx[near], dy[near], dist[near]
        coincident = dist_n <= 1e-9
        safe = np.where(coincident, 1.0, dist_n)
        magnitude = (
            self.sensor_gain * (self.repulsion_distance - dist_n)
            / self.repulsion_distance
        )
        fx = np.where(coincident, self.sensor_gain, (dx_n / safe) * magnitude)
        fy = np.where(coincident, 0.0, (dy_n / safe) * magnitude)
        return (
            np.bincount(rows_n, weights=fx, minlength=n),
            np.bincount(rows_n, weights=fy, minlength=n),
        )
