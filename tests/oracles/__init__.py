"""Reference oracles for the parity tests and the seed perf floors.

The production code has one fast path per concern; the slower reference
implementations it is checked against live here, as small subclasses or
functions that tests (and ``benchmarks/test_perf_spatial.py``) import:

* :mod:`.world` — a radio that always takes the brute-force scans and a
  world whose queries bypass the neighbour cache and the incremental
  coverage tracker;
* :mod:`.floor` — an exhaustive floor-registry scan and an invitation
  protocol that walks every tree route with the scalar walk;
* :mod:`.seed` — the paper's literal step ladder, the seed CPVF dynamics
  (:class:`SeedCPVF`) and the seed neighbour-table / coverage /
  CPVF-period algorithms with their timers.
"""

from .floor import ExhaustiveFloorRegistry, ScalarWalkInvitations, scalar_walks
from .seed import (
    NeighborMotion,
    SeedCPVF,
    max_valid_step_reference,
    seed_coverage_fraction,
    seed_coverage_ms,
    seed_cpvf_period_ms,
    seed_neighbor_table,
    seed_neighbor_table_ms,
    step_is_valid,
)
from .world import BruteRadio, UncachedWorld, uncached

__all__ = [
    "BruteRadio",
    "UncachedWorld",
    "uncached",
    "ExhaustiveFloorRegistry",
    "ScalarWalkInvitations",
    "scalar_walks",
    "NeighborMotion",
    "SeedCPVF",
    "step_is_valid",
    "max_valid_step_reference",
    "seed_neighbor_table",
    "seed_neighbor_table_ms",
    "seed_coverage_fraction",
    "seed_coverage_ms",
    "seed_cpvf_period_ms",
]
