"""The "explosion" dispersal step for VOR / Minimax (Section 6.2).

When sensors start densely clustered in a sub-area, the VD-based schemes
first need an explosion procedure that disperses them into an approximately
uniform random distribution before the round-based Voronoi adjustment can
make progress.  The paper charges this stage its *minimum possible* total
moving distance by modelling the choice of destination for each sensor as a
minimum weighted bipartite matching, solved with the Hungarian algorithm —
which gives VOR and Minimax a best-case moving-distance baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..assignment import minimum_distance_matching
from ..field import Field, uniform_initial_positions
from ..geometry import Vec2

__all__ = ["ExplosionResult", "explode"]


@dataclass
class ExplosionResult:
    """Outcome of the explosion dispersal."""

    positions: List[Vec2]
    per_sensor_distance: List[float]


def explode(
    initial_positions: Sequence[Vec2],
    field: Field,
    rng,
    target_positions: Sequence[Vec2] | None = None,
) -> ExplosionResult:
    """Disperse clustered sensors to a uniform random layout at minimum cost.

    ``target_positions`` may be supplied explicitly (e.g. a layout produced
    by another scheme, for the Fig 11 lower bounds); when omitted, a fresh
    uniform random layout over the field's free space is drawn with ``rng``.
    The assignment of sensors to destinations is the minimum-total-distance
    matching (Hungarian algorithm).
    """
    sources = list(initial_positions)
    if target_positions is None:
        targets: List[Vec2] = uniform_initial_positions(len(sources), rng, field)
    else:
        targets = list(target_positions)
    if len(targets) != len(sources):
        raise ValueError("number of targets must equal number of sensors")

    assignment, _ = minimum_distance_matching(
        [p.as_tuple() for p in sources], [p.as_tuple() for p in targets]
    )
    final_positions: List[Vec2] = [targets[assignment[i]] for i in range(len(sources))]
    distances = [
        sources[i].distance_to(final_positions[i]) for i in range(len(sources))
    ]
    return ExplosionResult(positions=final_positions, per_sensor_distance=distances)
