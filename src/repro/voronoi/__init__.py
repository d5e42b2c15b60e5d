"""Voronoi-diagram substrate: full and communication-limited cells.

:func:`compute_cell` is the one way to build a cell (the site against
every other site, clipped to the field).  :func:`local_cell` runs it
against the neighbours within ``rc`` only, and :func:`diagram_is_correct`
compares every sensor's local cell with its true cell ("Incorrect VD" in
Fig 10).
"""

from .diagram import VoronoiCell, compute_cell, minimum_enclosing_circle
from .local import LocalVoronoiResult, diagram_is_correct, local_cell

__all__ = [
    "VoronoiCell",
    "compute_cell",
    "minimum_enclosing_circle",
    "LocalVoronoiResult",
    "diagram_is_correct",
    "local_cell",
]
