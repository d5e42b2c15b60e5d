"""Coverage grids.

The coverage metric in the paper is "the fraction of area covered by at
least one sensor".  We compute it on a regular grid of sample points laid
over the field, excluding points inside obstacles, exactly as a raster
approximation of the covered area.  The grid is also reused by the random
obstacle generator to verify free-space connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["CoverageGrid"]


@dataclass
class CoverageGrid:
    """A regular grid of sample points over an axis-aligned rectangle.

    Parameters
    ----------
    xmin, ymin, xmax, ymax:
        Bounds of the sampled rectangle.
    resolution:
        Spacing between neighbouring sample points, in metres.  The paper's
        field is 1000 x 1000 m with sensing ranges of 30-60 m, so a 10 m
        resolution (the default used by the experiments) keeps the coverage
        estimate within about one percentage point of the exact value.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    resolution: float

    def __post_init__(self) -> None:
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ValueError("grid rectangle must have positive extent")
        if self.resolution <= 0:
            raise ValueError("grid resolution must be positive")
        xs = np.arange(self.xmin + self.resolution / 2, self.xmax, self.resolution)
        ys = np.arange(self.ymin + self.resolution / 2, self.ymax, self.resolution)
        self._xs = xs
        self._ys = ys
        # Meshgrid of sample point coordinates, flattened to 1-D arrays.
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        self._px = gx.ravel()
        self._py = gy.ravel()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Number of sample columns and rows ``(nx, ny)``."""
        return (len(self._xs), len(self._ys))

    @property
    def num_points(self) -> int:
        """Total number of sample points."""
        return len(self._px)

    def point_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The flattened x and y coordinate arrays of all sample points."""
        return self._px, self._py

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------
    def disk_block(
        self, cx: float, cy: float, radius: float
    ) -> "Tuple[slice, slice, np.ndarray] | None":
        """The grid sub-block a disk touches, with its in-disk mask.

        Returns ``(i_slice, j_slice, hit)`` where ``hit`` is the boolean
        mask ``dx*dx + dy*dy <= radius*radius`` over the sub-block of the
        ``'ij'``-shaped grid inside the disk's bounding box, or ``None``
        when the disk misses the grid entirely.  This is the single
        rasterisation predicate every coverage path shares — the
        incremental tracker's exact-parity contract depends on all
        consumers using the same float ops.
        """
        xs, ys = self._xs, self._ys
        i0 = int(np.searchsorted(xs, cx - radius, side="left"))
        i1 = int(np.searchsorted(xs, cx + radius, side="right"))
        j0 = int(np.searchsorted(ys, cy - radius, side="left"))
        j1 = int(np.searchsorted(ys, cy + radius, side="right"))
        if i0 >= i1 or j0 >= j1:
            return None
        dx = xs[i0:i1, None] - cx
        dy = ys[None, j0:j1] - cy
        hit = dx * dx + dy * dy <= radius * radius
        return slice(i0, i1), slice(j0, j1), hit

    def coverage_mask(
        self, centers: Sequence[Tuple[float, float]], radius: float
    ) -> np.ndarray:
        """Mask of sample points within ``radius`` of any of ``centers``.

        Each disk only touches the sub-block of grid points inside its
        bounding box, so the cost is proportional to the covered area
        rather than ``len(centers) * num_points``.
        """
        covered = np.zeros(self.shape, dtype=bool)
        if not centers or radius <= 0:
            return covered.ravel()
        for cx, cy in centers:
            block = self.disk_block(cx, cy, radius)
            if block is None:
                continue
            si, sj, hit = block
            covered[si, sj] |= hit
        return covered.ravel()

    def fraction(self, mask: np.ndarray, domain: np.ndarray | None = None) -> float:
        """Fraction of (domain) points set in ``mask``.

        ``domain`` restricts the denominator; in the experiments it is the
        set of points not inside an obstacle.
        """
        if domain is None:
            if self.num_points == 0:
                return 0.0
            return float(np.count_nonzero(mask)) / float(self.num_points)
        denom = int(np.count_nonzero(domain))
        if denom == 0:
            return 0.0
        return float(np.count_nonzero(mask & domain)) / float(denom)
