"""The full-information Voronoi baseline (reference for the local cells)."""

from __future__ import annotations

from repro.baselines import VorScheme
from repro.voronoi import compute_cell


class InformedVorScheme(VorScheme):
    """VOR whose sensors build their true Voronoi cell from every sensor.

    The production scheme clips only against neighbours within ``rc``
    (the paper's realistic setting); this idealised variant hears the
    whole network, so small ``rc`` no longer yields incorrect cells.
    """

    def _cell(self, index, positions, world):
        others = [p for j, p in enumerate(positions) if j != index]
        return compute_cell(
            positions[index], others, world.field.boundary_polygon()
        )
