"""Connectivity-preserving step-size selection (CPVF, Section 4.2).

Before moving, a CPVF sensor checks that its planned step does not break the
link to any connection it must maintain (its tree parent and children).  The
paper states two *connectivity preserving conditions* for a planned move of
sensor ``s`` relative to a neighbour ``s'`` whose own period ends at ``t'``:

1. the distance between ``s`` and ``s'`` at time ``t'`` is no greater than
   ``rc``; and
2. the distance between ``s'``'s position at ``t'`` and ``s``'s position at
   ``t + T`` is no greater than ``rc``.

Appendix A proves that when both endpoints of the two straight-line moves
are within ``rc``, every intermediate pair of positions is too.  In the
period-synchronous engine the neighbour's end-of-period position is known
(its current position when it is not moving, or its own planned endpoint),
so the conditions reduce to endpoint distance checks, which is exactly what
:func:`max_valid_step` evaluates over a ladder of candidate step sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..geometry import EPS, Vec2

__all__ = [
    "NeighborMotion",
    "step_is_valid",
    "max_valid_step",
    "max_valid_step_points",
    "STEP_FRACTIONS",
]

#: Candidate step-size fractions examined by a sensor, mirroring the paper's
#: example ladder ``V*T, 0.9*V*T, ..., 0.1*V*T, 0``.
STEP_FRACTIONS = tuple(round(1.0 - 0.1 * i, 1) for i in range(11))


@dataclass(frozen=True)
class NeighborMotion:
    """What a sensor knows about a neighbour it must stay connected to.

    ``current`` is the neighbour's position now (time ``t``) and
    ``planned_end`` its position at the end of its own period (``t'``); for
    a stationary neighbour the two coincide.
    """

    current: Vec2
    planned_end: Vec2

    @staticmethod
    def stationary(position: Vec2) -> "NeighborMotion":
        """A neighbour that is not moving this period."""
        return NeighborMotion(position, position)


def step_is_valid(
    start: Vec2,
    end: Vec2,
    neighbors: Iterable[NeighborMotion],
    communication_range: float,
) -> bool:
    """Whether moving ``start -> end`` keeps every required link alive.

    Checks the two connectivity-preserving conditions against every
    neighbour the sensor needs to retain.
    """
    for nb in neighbors:
        # Condition 1: at the neighbour's period end the link still holds
        # (our position is somewhere on [start, end]; by convexity it is
        # enough that both endpoints are within range of nb's endpoint and
        # start point — see Appendix A).
        if start.distance_to(nb.planned_end) > communication_range + 1e-9:
            return False
        # Condition 2: our end-of-period position is within range of the
        # neighbour's end-of-period position.
        if end.distance_to(nb.planned_end) > communication_range + 1e-9:
            return False
        # Also keep range with the neighbour's current position, covering
        # the case where the neighbour cancels its own move.
        if end.distance_to(nb.current) > communication_range + 1e-9:
            return False
    return True


def max_valid_step(
    position: Vec2,
    direction: Vec2,
    max_step: float,
    neighbors: Sequence[NeighborMotion],
    communication_range: float,
    fractions: Sequence[float] = STEP_FRACTIONS,
) -> float:
    """Largest admissible step size along ``direction``.

    Tries the candidate fractions of ``max_step`` from largest to smallest
    and returns the first one that satisfies the connectivity-preserving
    conditions for every required neighbour; returns ``0`` if even the
    smallest non-zero candidate is invalid.

    This is the CPVF hot path, so it works in plain floats: condition 1
    only depends on the start position and is checked once per neighbour
    (if it fails for any link no candidate can be valid), and for a
    stationary neighbour conditions 2 and 3 coincide and are evaluated
    once.  Results are bit-identical to the paper's ladder evaluated
    literally through :func:`step_is_valid` (the parity reference in
    ``tests/oracles``).
    """
    dir_x, dir_y = direction.x, direction.y
    norm = math.hypot(dir_x, dir_y)
    if norm <= EPS or max_step <= 0.0:
        return 0.0
    unit_x, unit_y = dir_x / norm, dir_y / norm
    px, py = position.x, position.y
    limit = communication_range + 1e-9
    checks = []
    for nb in neighbors:
        end = nb.planned_end
        ex, ey = end.x, end.y
        # Condition 1: already out of range of a required link -> no
        # candidate step (including zero) can restore it.
        if math.hypot(px - ex, py - ey) > limit:
            return 0.0
        cur = nb.current
        cx, cy = cur.x, cur.y
        checks.append((ex, ey, cx == ex and cy == ey, cx, cy))
    return _ladder_scan(px, py, unit_x, unit_y, max_step, checks, limit, fractions)


def _ladder_scan(
    px: float,
    py: float,
    unit_x: float,
    unit_y: float,
    max_step: float,
    checks: Sequence[tuple],
    limit: float,
    fractions: Sequence[float],
) -> float:
    """Shared fraction ladder over precomputed link checks.

    ``checks`` entries are ``(end_x, end_y, stationary, cur_x, cur_y)``;
    condition 1 is the caller's responsibility.  The single loop both
    float ladders (:func:`max_valid_step`, :func:`max_valid_step_points`)
    delegate to, so the connectivity-preserving conditions live in one
    place.
    """
    for fraction in fractions:
        step = fraction * max_step
        if step <= 0.0:
            return 0.0
        qx, qy = px + unit_x * step, py + unit_y * step
        valid = True
        for ex, ey, stationary, cx, cy in checks:
            # Condition 2 against the neighbour's end-of-period position.
            if math.hypot(qx - ex, qy - ey) > limit:
                valid = False
                break
            # Condition 3 against its current position (skipped when the
            # neighbour is stationary: same endpoints, same check).
            if not stationary and math.hypot(qx - cx, qy - cy) > limit:
                valid = False
                break
        if valid:
            return step
    return 0.0


def max_valid_step_points(
    px: float,
    py: float,
    dir_x: float,
    dir_y: float,
    max_step: float,
    links: Sequence[tuple],
    communication_range: float,
    fractions: Sequence[float] = STEP_FRACTIONS,
) -> float:
    """:func:`max_valid_step` for stationary links given as ``(x, y)`` pairs.

    The CPVF main loop preserves links to its (stationary within the
    decision) tree parent and children; passing their coordinates as plain
    floats avoids building ``NeighborMotion``/``Vec2`` objects per sensor
    per period.  Returns the same ladder decision as
    :func:`max_valid_step` over ``NeighborMotion.stationary`` entries.
    """
    norm = math.hypot(dir_x, dir_y)
    if norm <= EPS or max_step <= 0.0:
        return 0.0
    unit_x, unit_y = dir_x / norm, dir_y / norm
    limit = communication_range + 1e-9
    for lx, ly in links:
        if math.hypot(px - lx, py - ly) > limit:
            return 0.0
    checks = [(lx, ly, True, lx, ly) for lx, ly in links]
    return _ladder_scan(px, py, unit_x, unit_y, max_step, checks, limit, fractions)
