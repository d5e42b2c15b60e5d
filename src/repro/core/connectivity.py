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
are within ``rc``, every intermediate pair of positions is too.  Within one
CPVF decision the preserved links are stationary (their end-of-period
position is their current one), so the conditions reduce to endpoint
distance checks, which is exactly what :func:`max_valid_step_points`
evaluates over a ladder of candidate step sizes.  The paper's ladder
evaluated literally, over possibly moving neighbours, is the parity
reference in ``tests/oracles``.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..geometry import EPS
from ..network import LINK_EPS

__all__ = ["max_valid_step_points", "STEP_FRACTIONS"]

#: Candidate step-size fractions examined by a sensor, mirroring the paper's
#: example ladder ``V*T, 0.9*V*T, ..., 0.1*V*T, 0``.
STEP_FRACTIONS = tuple(round(1.0 - 0.1 * i, 1) for i in range(11))


def max_valid_step_points(
    px: float,
    py: float,
    dir_x: float,
    dir_y: float,
    max_step: float,
    links: Sequence[tuple],
    communication_range: float,
) -> float:
    """Largest admissible step size along ``(dir_x, dir_y)`` from ``(px, py)``.

    ``links`` are the ``(x, y)`` positions of the stationary links the
    sensor must preserve.  Tries the :data:`STEP_FRACTIONS` of ``max_step``
    from largest to smallest and returns the first one that keeps every
    link within range; returns ``0`` if even the smallest non-zero
    candidate is invalid.

    This is the CPVF hot path, so it works in plain floats: condition 1
    only depends on the start position and is checked once per link (if
    it fails for any link no candidate can be valid), and for a
    stationary link condition 2 is a single end-point distance.
    """
    norm = math.hypot(dir_x, dir_y)
    if norm <= EPS or max_step <= 0.0:
        return 0.0
    unit_x, unit_y = dir_x / norm, dir_y / norm
    limit = communication_range + LINK_EPS
    for lx, ly in links:
        # Condition 1: already out of range of a required link -> no
        # candidate step (including zero) can restore it.
        if math.hypot(px - lx, py - ly) > limit:
            return 0.0
    for fraction in STEP_FRACTIONS:
        step = fraction * max_step
        if step <= 0.0:
            return 0.0
        qx, qy = px + unit_x * step, py + unit_y * step
        # Condition 2 against every link's (stationary) position.
        for lx, ly in links:
            if math.hypot(qx - lx, qy - ly) > limit:
                break
        else:
            return step
    return 0.0
