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

#: Stencil cells (disks x bounding-box cells) rasterised per batch.
_STENCIL_CELLS = 1 << 18


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

    @property
    def axes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sample coordinates along x (``nx`` values) and y (``ny``)."""
        return self._xs, self._ys

    def point_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The flattened x and y coordinate arrays of all sample points."""
        return self._px, self._py

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------
    def disk_hits(self, cx, cy, radius: float) -> np.ndarray:
        """Flat indices of every (disk, sample point) hit, in one batch.

        ``cx`` and ``cy`` are equal-length arrays of disk centres sharing
        one ``radius``.  The result holds, for each disk, the flat
        (``'ij'``-raveled) index of every sample point with
        ``dx*dx + dy*dy <= radius*radius``; a point inside ``k`` disks
        appears ``k`` times, so ``np.bincount`` of the result is the
        coverage multiplicity.  This is the single rasterisation
        predicate every coverage path shares: each disk's bounding box
        ``[i0, i1) x [j0, j1)`` comes from ``searchsorted`` on the sample
        axes, and the per-point test uses the same float64 ops on the
        same coordinates, so every consumer (the incremental tracker,
        :meth:`coverage_mask`, the coverage report) agrees bit for bit.
        """
        return self.disk_hits_split(cx, cy, radius, 0)[0]

    def disk_hits_split(
        self, cx, cy, radius: float, first: int
    ) -> Tuple[np.ndarray, int]:
        """:meth:`disk_hits`, and how many of its hits the first ``first``
        disks make.

        The hits come out disk by disk in input order, so those of the
        first ``first`` disks are the leading ``split`` entries of the
        array: one pass rasterises two batches of disks and still tells
        their hits apart.
        """
        cx = np.asarray(cx, dtype=float).ravel()
        cy = np.asarray(cy, dtype=float).ravel()
        xs, ys = self._xs, self._ys
        i0 = np.searchsorted(xs, cx - radius, side="left")
        j0 = np.searchsorted(ys, cy - radius, side="left")
        wi = np.searchsorted(xs, cx + radius, side="right") - i0
        wj = np.searchsorted(ys, cy + radius, side="right") - j0
        width = int(wi.max(initial=0))
        height = int(wj.max(initial=0))
        if width <= 0 or height <= 0:
            return np.empty(0, dtype=np.intp), 0
        # One stencil as wide as the widest bounding box, clipped to the
        # axes for the gather and masked to each disk's own box; disks go
        # through in chunks so the stencil stays small at any n.  A
        # boolean gather of the stencil's flat indices yields the hits in
        # C order, disk by disk, as ``nonzero`` would.
        ny = len(ys)
        di = np.arange(width)
        dj = np.arange(height)
        chunk = max(1, _STENCIL_CELLS // (width * height))
        parts = []
        split = 0
        for lo in range(0, len(cx), chunk):
            sl = slice(lo, lo + chunk)
            ii = np.minimum(i0[sl, None] + di, len(xs) - 1)
            jj = np.minimum(j0[sl, None] + dj, ny - 1)
            dx = xs[ii] - cx[sl, None]
            dy = ys[jj] - cy[sl, None]
            # A sample outside the disk's own box gets an infinite square,
            # which no sum brings within the radius.
            dx2 = np.where(di < wi[sl, None], dx * dx, np.inf)
            dy2 = np.where(dj < wj[sl, None], dy * dy, np.inf)
            hit = dx2[:, :, None] + dy2[:, None, :] <= radius * radius
            if lo < first:
                # The chunk's hits of disks before ``first``.
                split += int(np.count_nonzero(hit[: first - lo]))
            parts.append(((ii * ny)[:, :, None] + jj[:, None, :])[hit])
        return np.concatenate(parts), split

    def coverage_mask(
        self, centers: Sequence[Tuple[float, float]], radius: float
    ) -> np.ndarray:
        """Mask of sample points within ``radius`` of any of ``centers``."""
        covered = np.zeros(self.num_points, dtype=bool)
        if len(centers) == 0 or radius <= 0:
            return covered
        pts = np.asarray(centers, dtype=float)
        covered[self.disk_hits(pts[:, 0], pts[:, 1], radius)] = True
        return covered

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
