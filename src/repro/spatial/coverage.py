"""Incremental coverage tracking over the shared coverage grid.

Maintains the per-cell *multiplicity* (number of sensing disks containing
each grid sample point).  Re-measuring coverage after a period in which
``k`` sensors moved rasterises only those ``2k`` disks (the old ones
removed, the new ones added) in one
:meth:`~repro.geometry.grid.CoverageGrid.disk_hits_split` pass, applies
the difference of the two batches' ``bincount`` arrays, and then counts the
covered free cells over the grid.

The per-cell predicate is the same float64 ``dx*dx + dy*dy <= r*r`` the
brute-force :meth:`repro.geometry.grid.CoverageGrid.coverage_mask` uses on
identical coordinate arrays, so the covered-cell count — and the returned
fraction — is bit-identical to the brute-force path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..field import Field

__all__ = ["IncrementalCoverage"]


class IncrementalCoverage:
    """Tracks the coverage fraction of one (field, radius, resolution)."""

    def __init__(self, field: Field, sensing_range: float, resolution: float):
        self._radius = float(sensing_range)
        grid, obstacle_mask = field.grid_and_obstacle_mask(resolution)
        self._grid = grid
        self._free = ~obstacle_mask
        self._free_total = int(self._free.sum())
        self._multiplicity = np.zeros(grid.num_points, dtype=np.intp)
        self._covered_free = 0
        self._positions: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, positions) -> int:
        """Bring the tracker in sync with the given ``(n, 2)`` positions.

        Diffs against the previously applied positions and re-rasterises
        only the disks of sensors that actually moved; a change in sensor
        count triggers a full rebuild.  Returns the number of disks
        rasterised.
        """
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        old = self._positions
        num_points = self._grid.num_points
        if old is None or len(old) != len(pts):
            self._multiplicity = np.bincount(
                self._hits(pts, 0)[0], minlength=num_points
            )
            disks = len(pts)
            recount = True
        else:
            moved = (old[:, 0] != pts[:, 0]) | (old[:, 1] != pts[:, 1])
            count = int(np.count_nonzero(moved))
            disks = 2 * count
            recount = disks > 0
            if recount:
                # The old disks first, then the new ones, in one pass.
                hits, split = self._hits(
                    np.concatenate((old[moved], pts[moved])), count
                )
                self._multiplicity += np.bincount(
                    hits[split:], minlength=num_points
                ) - np.bincount(hits[:split], minlength=num_points)
        if recount:
            self._covered_free = int(
                np.count_nonzero((self._multiplicity > 0) & self._free)
            )
        self._positions = pts.copy()
        return disks

    def _hits(self, pts: np.ndarray, first: int) -> Tuple[np.ndarray, int]:
        """Flat grid indices hit by the sensing disks centred at ``pts``,
        and how many of them the first ``first`` disks make."""
        if self._radius <= 0:
            return np.empty(0, dtype=np.intp), 0
        return self._grid.disk_hits_split(
            pts[:, 0], pts[:, 1], self._radius, first
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def covered_fraction(self) -> float:
        """Fraction of free grid cells covered by at least one disk."""
        if self._free_total == 0:
            return 0.0
        return self._covered_free / self._free_total
