"""Spatial acceleration subsystem: cell-hash index, neighbor cache, coverage.

The paper's schemes are defined per-period over every sensor's
neighborhood, so the simulator's hot loop is dominated by three queries:
neighbor tables (``Radio.neighbor_table``), base-station adjacency, and
coverage.  The seed implementation recomputed each of them from scratch —
a dense ``O(n^2)`` distance matrix and a full-grid scan per sensing disk —
which caps practical runs at a few hundred sensors.  This package provides
the shared fast paths:

``SpatialIndex`` — a uniform grid hash over a packed ``(n, 2)`` numpy
position store.  The plane is partitioned into square cells of side
``cell_size`` (callers pick the dominant query radius, e.g. the
communication range); each point is bucketed by ``floor(p / cell_size)``
and the buckets are stored as slices of one argsorted index array, so
candidate generation for a radius-``r`` query touches only the
``ceil(r / cell_size)``-ring of cells around the query and is fully
vectorised (no per-point Python loop).  Candidates are then filtered by
*squared* distance — ``sqrt`` is never taken.  Cell membership is an
over-approximation only: the geometric candidate ring is slightly
inflated, and the exact float64 predicate ``d2 <= r*r`` decides
membership, so results are bit-identical to a brute-force squared-distance
scan.

``NeighborCache`` — an epoch-based per-:class:`~repro.sim.world.World`
cache of the neighbor table, base-station adjacency and the base station's
connected component.  The epoch is the tuple of per-sensor
``MotionModel.position_version`` counters, which are bumped on *every*
position assignment; the cache therefore invalidates exactly when a sensor
actually moves and three queries issued in the same period share one
spatial-index build instead of three dense matrix rebuilds.  Cached
structures are returned as copies so callers may mutate them freely, which
preserves the semantics of the pre-cache API.

``IncrementalCoverage`` — maintains the per-cell coverage *multiplicity*
grid (how many sensing disks contain each sample point) plus a running
count of covered free cells.  When a sensor moves, only the grid cells
inside the bounding boxes of its old and new sensing disks are updated
(decrement old disk, increment new disk, track 0<->1 transitions), making
``World.coverage()`` cheap enough to trace every period.  The predicate
per cell is the same float64 ``dx*dx + dy*dy <= r*r`` the brute-force
:meth:`~repro.geometry.grid.CoverageGrid.coverage_mask` uses, so the
covered-cell count — and hence the coverage fraction — matches the
brute-force path exactly, not just to within tolerance.

Invalidation contract: the ``NeighborCache`` epoch covers per-sensor
position versions and communication ranges plus the radio's
line-of-sight flag and the configured base-station range, so both
movement and mid-run radio-parameter mutations invalidate; the sensor
*population* is assumed fixed for the lifetime of a ``World``, which
holds for every scheme in this repository.  ``IncrementalCoverage``
diffs the packed position array itself and rebuilds from scratch when
the sensor count changes.  The brute-force references
(``Radio.neighbor_table_bruteforce``, ``Field.coverage_fraction`` and the
uncached world in ``tests/oracles``) are exercised against the fast paths
by randomized parity tests under ``tests/spatial/``.
"""

from .index import SpatialIndex, pack_positions
from .cache import NeighborCache
from .coverage import IncrementalCoverage
from .pairstore import PairStore

__all__ = [
    "SpatialIndex",
    "NeighborCache",
    "IncrementalCoverage",
    "PairStore",
    "pack_positions",
]
