"""Uniform-grid spatial hash over a packed numpy position store.

See the package docstring for the design.  The index is rebuilt with
:meth:`SpatialIndex.build` whenever positions change; building is a single
``argsort`` over integer cell keys, so it is cheap relative to even one
dense distance-matrix computation.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["SpatialIndex"]

#: Relative inflation applied to the geometric candidate ring so that cell
#: membership never excludes a pair the exact squared-distance predicate
#: would accept (floor() bucketing at an exact cell boundary).
_GEOM_SLACK = 1e-9


def _as_xy(point) -> Tuple[float, float]:
    """Accept a ``Vec2``-like object or a 2-sequence as a query point."""
    x = getattr(point, "x", None)
    if x is not None:
        return float(x), float(point.y)
    px, py = point
    return float(px), float(py)


class SpatialIndex:
    """Cell-hash index answering radius queries by squared distance.

    Parameters
    ----------
    cell_size:
        Side of the square hash cells.  Pick the dominant query radius
        (e.g. the communication range): queries with ``r <= cell_size``
        then touch only the 3x3 ring of cells around the query.  Larger
        radii still work — the ring is widened to ``ceil(r / cell_size)``.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._points = np.empty((0, 2), dtype=float)
        self._x = np.empty(0, dtype=float)
        self._y = np.empty(0, dtype=float)
        self._n = 0
        self._order = np.empty(0, dtype=np.intp)
        self._unique_keys = np.empty(0, dtype=np.int64)
        self._starts = np.empty(0, dtype=np.intp)
        self._ends = np.empty(0, dtype=np.intp)
        self._cell_x = np.empty(0, dtype=np.int64)
        self._cell_y = np.empty(0, dtype=np.int64)
        self._min_cell = (0, 0)
        self._nx = 0
        self._ny = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, positions) -> "SpatialIndex":
        """(Re)build the index over an ``(n, 2)`` array of positions.

        Accepts any array-like; ``Vec2`` sequences should be packed by the
        caller (``np.array([(p.x, p.y) for p in pts])``) to avoid object
        arrays.  Returns ``self`` for chaining.
        """
        pts = np.asarray(positions, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("positions must have shape (n, 2)")
        self._points = pts
        # Flat per-axis copies: 1-D gathers are markedly faster than fancy
        # indexing into the 2-D store on the pair-generation hot path.
        self._x = np.ascontiguousarray(pts[:, 0]) if len(pts) else np.empty(0)
        self._y = np.ascontiguousarray(pts[:, 1]) if len(pts) else np.empty(0)
        self._n = n = len(pts)
        if n == 0:
            self._order = np.empty(0, dtype=np.intp)
            self._unique_keys = np.empty(0, dtype=np.int64)
            self._starts = np.empty(0, dtype=np.intp)
            self._ends = np.empty(0, dtype=np.intp)
            return self
        cells = np.floor(pts / self.cell_size).astype(np.int64)
        cmin = cells.min(axis=0)
        self._min_cell = (int(cmin[0]), int(cmin[1]))
        self._cell_x = cells[:, 0] - cmin[0]
        self._cell_y = cells[:, 1] - cmin[1]
        self._nx = int(self._cell_x.max()) + 1
        self._ny = int(self._cell_y.max()) + 1
        keys = self._cell_x * self._ny + self._cell_y
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        unique_keys, starts = np.unique(sorted_keys, return_index=True)
        self._order = order.astype(np.intp)
        self._unique_keys = unique_keys
        self._starts = starts.astype(np.intp)
        self._ends = np.append(starts[1:], n).astype(np.intp)
        return self

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return self._n

    @property
    def points(self) -> np.ndarray:
        """The packed ``(n, 2)`` position store the index was built over."""
        return self._points

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _reach(self, r: float) -> int:
        """Number of cell rings a radius-``r`` query must inspect."""
        inflated = r * (1.0 + _GEOM_SLACK) + _GEOM_SLACK
        return max(1, int(math.ceil(inflated / self.cell_size)))

    def query_radius(self, point, r: float) -> np.ndarray:
        """Indices (ascending) of points with ``d2 <= r*r`` from ``point``.

        ``point`` may be a ``Vec2`` or any 2-sequence.  The result may
        include an indexed point lying exactly at ``point``.
        """
        if self._n == 0 or r < 0:
            return np.empty(0, dtype=np.intp)
        px, py = _as_xy(point)
        cs = self.cell_size
        reach_r = r * (1.0 + _GEOM_SLACK) + _GEOM_SLACK
        cx0 = max(int(math.floor((px - reach_r) / cs)) - self._min_cell[0], 0)
        cx1 = min(int(math.floor((px + reach_r) / cs)) - self._min_cell[0], self._nx - 1)
        cy0 = max(int(math.floor((py - reach_r) / cs)) - self._min_cell[1], 0)
        cy1 = min(int(math.floor((py + reach_r) / cs)) - self._min_cell[1], self._ny - 1)
        if cx0 > cx1 or cy0 > cy1:
            return np.empty(0, dtype=np.intp)
        chunks = []
        ukeys = self._unique_keys
        for tx in range(cx0, cx1 + 1):
            key_lo = tx * self._ny + cy0
            key_hi = tx * self._ny + cy1
            lo = int(np.searchsorted(ukeys, key_lo, side="left"))
            hi = int(np.searchsorted(ukeys, key_hi, side="right"))
            for pos in range(lo, hi):
                chunks.append(self._order[self._starts[pos]:self._ends[pos]])
        if not chunks:
            return np.empty(0, dtype=np.intp)
        cand = np.concatenate(chunks)
        dx = self._x[cand] - px
        dy = self._y[cand] - py
        hits = cand[dx * dx + dy * dy <= r * r]
        hits.sort()
        return hits

    def _candidate_pairs(self, reach: int) -> Tuple[np.ndarray, np.ndarray]:
        """Directed candidate pairs ``(rows, cols)`` from nearby cells.

        For every point, the candidates are all points bucketed within
        ``reach`` cells in each axis (including the point's own cell, and
        the point itself — callers filter identity and distance).  Fully
        vectorised, one gather per cell-*row* offset: within a cell row
        ``tx`` the keys ``tx * ny + (cy - reach .. cy + reach)`` are
        contiguous, and the bucketed points of consecutive cells are
        adjacent in the argsorted order, so the whole ``2 * reach + 1``
        cell window of a row is a single slice of ``_order``.
        """
        n = self._n
        ukeys = self._unique_keys
        nkeys = len(ukeys)
        width = 2 * reach + 1
        # One fused batch over all (2*reach + 1) cell-row offsets: stack the
        # per-offset target rows so searchsorted and the repeat/gather run
        # once over width * n queries instead of width times over n.
        arange_n = np.arange(n, dtype=np.intp)
        offsets = np.arange(-reach, reach + 1, dtype=np.int64)
        tx = (self._cell_x[None, :] + offsets[:, None]).ravel()
        valid = (tx >= 0) & (tx < self._nx)
        cy_lo = np.tile(np.maximum(self._cell_y - reach, 0), width)
        cy_hi = np.tile(np.minimum(self._cell_y + reach, self._ny - 1), width)
        key_lo = tx * self._ny + cy_lo
        key_hi = tx * self._ny + cy_hi
        lo = np.searchsorted(ukeys, key_lo, side="left")
        hi = np.searchsorted(ukeys, key_hi, side="right")
        occupied = valid & (hi > lo)
        slice_start = np.where(occupied, self._starts[np.minimum(lo, nkeys - 1)], 0)
        slice_end = np.where(occupied, self._ends[np.maximum(hi, 1) - 1], 0)
        lengths = slice_end - slice_start
        total = int(lengths.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        rows = np.repeat(np.tile(arange_n, width), lengths)
        base = np.repeat(slice_start, lengths)
        # Offset of each candidate within its source slice.
        shift = np.arange(total, dtype=np.intp) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        return rows, self._order[base + shift]

    def directed_pairs(
        self, r: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All directed pairs ``(i, j)``, ``i != j``, with ``d2 <= r*r``.

        Returns ``(rows, cols, d2)`` sorted lexicographically by
        ``(row, col)`` — the same neighbour ordering a dense row scan
        produces.  ``d2`` is the exact float64 squared distance.
        """
        empty = (
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=float),
        )
        if self._n < 2 or r < 0:
            return empty
        rows, cols = self._candidate_pairs(self._reach(r))
        if rows.size == 0:
            return empty
        dx = self._x[rows] - self._x[cols]
        dy = self._y[rows] - self._y[cols]
        d2 = dx * dx + dy * dy
        keep = (rows != cols) & (d2 <= r * r)
        rows, cols, d2 = rows[keep], cols[keep], d2[keep]
        # Single-key stable sort beats np.lexsort here; row * n + col is
        # collision-free and fits int64 comfortably.
        order = np.argsort(rows * self._n + cols, kind="stable")
        return rows[order], cols[order], d2[order]

    def pairs_within(self, r: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unordered pairs ``(i, j)``, ``i < j``, with ``d2 <= r*r``.

        Returns ``(i, j, d2)`` sorted lexicographically by ``(i, j)`` — the
        same order a brute-force ``for i: for j > i`` double loop visits
        accepting pairs, so union-find consumers reproduce brute-force
        results exactly.
        """
        rows, cols, d2 = self.directed_pairs(r)
        keep = rows < cols
        return rows[keep], cols[keep], d2[keep]
