"""Spatial acceleration subsystem: cell-hash index, neighbor cache, coverage.

The paper's schemes are defined per-period over every sensor's
neighborhood, so the simulator's hot loop is dominated by three queries:
neighbor tables, base-station adjacency, and coverage.  The seed implementation recomputed each of them from scratch —
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
holder of one ``NeighborSnapshot``: the live sensors' ids and (frozen
``Vec2``) positions, captured in one list pass each, for the paper's
unit disk of the world's single communication range (the only
neighbour path in the library).  A snapshot serves the rows of a few
sensors by scanning the captured positions (a scalar loop for a few
owners, one NumPy block for more), and builds the whole neighbour
table (also as id pair arrays), the base-station adjacency and the base
station's connected component only for callers that ask for them: up to
``DENSE_TABLE_MAX`` live sensors as one dense block, above from one
shared spatial-index build.  Every path applies the same predicate, so a
row is identical whichever served it.
The epoch includes the world's position clock
(``World.position_clock``), which *every* position write of a sensor
bumps (a write of the same position included), so a new snapshot is
captured exactly when a sensor was moved, and checking the epoch costs
the same at any population.  Answers are returned as copies so callers may mutate them
freely.

``IncrementalCoverage`` — maintains the per-cell coverage *multiplicity*
grid (how many sensing disks contain each sample point) and the count of
covered free cells.  When sensors move, the disks of the moved sensors
are rasterised in one
:meth:`~repro.geometry.grid.CoverageGrid.disk_hits_split` pass (a
stencil as wide as the widest disk bounding box, masked to each disk's
own box) — their old disks removed, their new disks added, as the
difference of two ``bincount`` arrays — and the covered cells are recounted
over the grid.  That keeps
``World.coverage()`` cheap enough to trace every period and to track an
event's recovery every period.  The predicate per cell is the same
float64 ``dx*dx + dy*dy <= r*r`` the brute-force
:meth:`~repro.geometry.grid.CoverageGrid.coverage_mask` uses on the same
sample coordinates, so the covered-cell count — and hence the coverage
fraction — matches the brute-force path exactly, not just to within
tolerance.

Invalidation contract: the ``NeighborCache`` epoch covers the world's
position clock, the configured communication range and the world's
population version, so movement, a mid-run range change and churn
(failures, injections) all invalidate.  ``IncrementalCoverage`` diffs
the packed position array itself and rebuilds from scratch when the
sensor count changes; ``World.coverage`` keys its trackers on
``field.version`` too, so an obstacle change starts a new one.  The
brute-force references (``BruteRadio`` and the uncached world in
``tests/oracles``, ``Field.coverage_fraction``)
are exercised against the fast paths by randomized parity tests under
``tests/spatial/``.
"""

from .index import SpatialIndex
from .cache import NeighborCache, NeighborSnapshot
from .coverage import IncrementalCoverage

__all__ = [
    "SpatialIndex",
    "NeighborCache",
    "NeighborSnapshot",
    "IncrementalCoverage",
]
