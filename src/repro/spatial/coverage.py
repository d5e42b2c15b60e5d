"""Incremental coverage tracking over the shared coverage grid.

Maintains the per-cell *multiplicity* (number of sensing disks containing
each grid sample point) and a running count of covered free cells.  Moving
one sensor only touches the grid cells inside the bounding boxes of its
old and new sensing disks, so re-measuring coverage after a period in
which ``k`` sensors moved costs ``O(k * disk_area / resolution^2)``
instead of a full-grid scan per sensor.

The per-cell predicate is the same float64 ``dx*dx + dy*dy <= r*r`` the
brute-force :meth:`repro.geometry.grid.CoverageGrid.coverage_mask` uses on
identical coordinate arrays, so the covered-cell count — and the returned
fraction — is bit-identical to the brute-force path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..field import Field

__all__ = ["IncrementalCoverage"]


class IncrementalCoverage:
    """Tracks the coverage fraction of one (field, radius, resolution)."""

    def __init__(self, field: Field, sensing_range: float, resolution: float):
        self._radius = float(sensing_range)
        grid, obstacle_mask = field.grid_and_obstacle_mask(resolution)
        self._grid = grid
        nx, ny = grid.shape
        self._free = (~obstacle_mask).reshape(nx, ny)
        self._free_total = int(self._free.sum())
        self._multiplicity = np.zeros((nx, ny), dtype=np.int32)
        self._covered_free = 0
        self._positions: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, positions) -> None:
        """Bring the tracker in sync with the given ``(n, 2)`` positions.

        Diffs against the previously applied positions and re-rasterises
        only the disks of sensors that actually moved.  A change in sensor
        count triggers a full rebuild.
        """
        pts = np.asarray(positions, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        old = self._positions
        if old is None or len(old) != len(pts):
            self._multiplicity[:] = 0
            self._covered_free = 0
            for k in range(len(pts)):
                self._apply_disk(pts[k, 0], pts[k, 1], +1)
        else:
            moved = np.flatnonzero((old[:, 0] != pts[:, 0]) | (old[:, 1] != pts[:, 1]))
            for k in moved:
                self._apply_disk(old[k, 0], old[k, 1], -1)
                self._apply_disk(pts[k, 0], pts[k, 1], +1)
        self._positions = pts.copy()

    def _apply_disk(self, x: float, y: float, delta: int) -> None:
        """Add (+1) or remove (-1) one sensing disk from the multiplicity."""
        if self._radius <= 0:
            return
        disk = self._grid.disk_block(x, y, self._radius)
        if disk is None:
            return
        si, sj, hit = disk
        block = self._multiplicity[si, sj]
        free = self._free[si, sj]
        if delta > 0:
            newly = hit & (block == 0)
            block += hit
            self._covered_free += int(np.count_nonzero(newly & free))
        else:
            block -= hit
            cleared = hit & (block == 0)
            self._covered_free -= int(np.count_nonzero(cleared & free))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def covered_fraction(self) -> float:
        """Fraction of free grid cells covered by at least one disk."""
        if self._free_total == 0:
            return 0.0
        return self._covered_free / self._free_total
