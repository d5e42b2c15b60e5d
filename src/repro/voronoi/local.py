"""Communication-limited ("local") Voronoi cells.

Figure 1 of the paper shows that a sensor whose communication range does not
reach all of its true Voronoi neighbours constructs an *incorrect* cell.
Figure 10 annotates the VOR/Minimax bars with "Incorrect VD" whenever at
least one sensor's locally computed cell differs from the true one.  This
module builds the local cells (clipping only against neighbours within
``rc``) and detects such discrepancies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..field import Field
from ..geometry import Vec2
from .diagram import VoronoiCell, compute_cell

__all__ = ["LocalVoronoiResult", "local_cell", "diagram_is_correct"]


@dataclass
class LocalVoronoiResult:
    """Outcome of constructing all local cells for a network snapshot."""

    cells: List[VoronoiCell]
    incorrect_count: int

    @property
    def all_correct(self) -> bool:
        """Whether every sensor constructed its true Voronoi cell."""
        return self.incorrect_count == 0


def local_cell(
    index: int,
    positions: Sequence[Vec2],
    communication_range: float,
    field: Field,
) -> VoronoiCell:
    """Voronoi cell computed only against neighbours within ``rc``."""
    site = positions[index]
    neighbours = [
        p
        for i, p in enumerate(positions)
        if i != index and site.distance_to(p) <= communication_range
    ]
    return compute_cell(site, neighbours, field.boundary_polygon())


def _cells_match(local: VoronoiCell, true: VoronoiCell, area_tolerance: float) -> bool:
    """Whether a local cell matches the true cell (by area difference).

    Comparing vertex lists directly is brittle; the area criterion captures
    what matters for the deployment schemes — whether the sensor over- or
    under-estimates its responsibility region.
    """
    if (local.polygon is None) != (true.polygon is None):
        return False
    if local.polygon is None and true.polygon is None:
        return True
    assert local.polygon is not None and true.polygon is not None
    return abs(local.polygon.area() - true.polygon.area()) <= area_tolerance


def diagram_is_correct(
    positions: Sequence[Vec2],
    communication_range: float,
    field: Field,
    area_tolerance: float = 1e-3,
) -> LocalVoronoiResult:
    """Compare every sensor's local cell against its true Voronoi cell.

    Returns the list of local cells and the count of sensors whose local
    cell differs from the true one ("Incorrect VD" in Fig 10).
    """
    bounding = field.boundary_polygon()
    incorrect = 0
    cells: List[VoronoiCell] = []
    for i, site in enumerate(positions):
        others = [p for j, p in enumerate(positions) if j != i]
        true_cell = compute_cell(site, others, bounding)
        loc_cell = local_cell(i, positions, communication_range, field)
        cells.append(loc_cell)
        if not _cells_match(loc_cell, true_cell, area_tolerance):
            incorrect += 1
    return LocalVoronoiResult(cells=cells, incorrect_count=incorrect)
