"""The paper's literal step ladder and the seed algorithms' perf baselines.

The seed neighbour table, coverage scan and CPVF period are kept verbatim
here (rather than in the library) so the perf floors of
``benchmarks/test_perf_spatial.py`` keep timing the seed algorithms even
as the library improves.  Each timer checks its seed answer against the
library before timing.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence
from unittest import mock

import numpy as np

from repro.core import CPVFScheme
from repro.core import cpvf as cpvf_module
from repro.core.connectivity import (
    STEP_FRACTIONS,
    NeighborMotion,
    step_is_valid,
)
from repro.experiments.perfbench import (
    best_of,
    coverage_moves,
    perf_world,
    time_cpvf_periods,
)
from repro.geometry import Segment, Vec2

from .world import uncached


def max_valid_step_reference(
    position: Vec2,
    direction: Vec2,
    max_step: float,
    neighbors: Sequence[NeighborMotion],
    communication_range: float,
    fractions: Sequence[float] = STEP_FRACTIONS,
) -> float:
    """The paper's candidate ladder, evaluated literally.

    The parity reference for :func:`repro.core.connectivity.max_valid_step`
    (the two must agree exactly) and the seed ladder of the CPVF perf
    baseline.
    """
    unit = direction.normalized()
    if unit.norm() == 0.0 or max_step <= 0.0:
        return 0.0
    for fraction in fractions:
        step = fraction * max_step
        if step <= 0.0:
            return 0.0
        end = position + unit * step
        if step_is_valid(position, end, neighbors, communication_range):
            return step
    return 0.0


def seed_neighbor_table(radio, sensors) -> Dict[int, List[int]]:
    """The seed ``Radio.neighbor_table``: dense ``sqrt`` matrix, row loops."""
    ids = [s.sensor_id for s in sensors]
    if not ids:
        return {}
    xs = np.array([s.position.x for s in sensors])
    ys = np.array([s.position.y for s in sensors])
    rcs = np.array([s.communication_range for s in sensors])
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    dist = np.sqrt(dx * dx + dy * dy)
    table: Dict[int, List[int]] = {i: [] for i in ids}
    for i in range(len(sensors)):
        within = np.flatnonzero(dist[i] <= rcs[i] + 1e-9)
        for j in within:
            if j == i:
                continue
            if radio.line_of_sight and radio.field.segment_blocked(
                Segment(sensors[i].position, sensors[j].position)
            ):
                continue
            table[ids[i]].append(ids[int(j)])
    return table


def seed_coverage_fraction(field, positions, sensing_range, resolution) -> float:
    """The seed coverage scan: every disk against the uncovered full grid."""
    grid, obstacle_mask = field.grid_and_obstacle_mask(resolution)
    px, py = grid.point_arrays()
    covered = np.zeros(grid.num_points, dtype=bool)
    if positions and sensing_range > 0:
        r_sq = sensing_range * sensing_range
        for p in positions:
            remaining = ~covered
            if not remaining.any():
                break
            dx = px[remaining] - p.x
            dy = py[remaining] - p.y
            hit = dx * dx + dy * dy <= r_sq
            idx = np.flatnonzero(remaining)
            covered[idx[hit]] = True
    free = ~obstacle_mask
    return grid.fraction(covered & free, domain=free)


def seed_neighbor_table_ms(
    n: int, seed: int = 3, clustered: bool = False, repeats: int = 10
) -> float:
    """Seed neighbour-table build time on the ``measure_neighbor_table`` layout."""
    world = perf_world(n, seed, clustered)
    sensors, radio = world.sensors, world.radio
    if seed_neighbor_table(radio, sensors) != radio.neighbor_table_indexed(sensors):
        raise AssertionError("seed neighbor table diverged from indexed table")
    seed_s = best_of(lambda: seed_neighbor_table(radio, sensors), repeats, rounds=5)
    return seed_s * 1000.0


def seed_cpvf_period_ms(n: int, seed: int = 3, periods: int = 6) -> float:
    """Seed CPVF period time on the ``measure_cpvf_period`` layout.

    The seed configuration: the sequential scheme with the literal step
    ladder on an uncached world with brute-force radio and coverage.
    """
    world = uncached(perf_world(n, seed, clustered=True))
    with mock.patch.object(
        cpvf_module, "max_valid_step", max_valid_step_reference
    ):
        seed_s = time_cpvf_periods(world, CPVFScheme(mode="sequential"), periods)
    return seed_s * 1000.0


def seed_coverage_ms(
    n: int, seed: int = 3, moved_fraction: float = 0.02, rounds: int = 5
) -> float:
    """Seed coverage-scan time over the ``measure_coverage`` move sequence."""
    world = perf_world(n, seed, clustered=False)
    rs = world.config.sensing_range
    res = world.config.coverage_resolution
    positions = np.array([(s.position.x, s.position.y) for s in world.sensors])
    seed_s = 0.0
    for current in coverage_moves(
        positions, world.field.width, seed, moved_fraction, rounds
    ):
        vecs = [Vec2(x, y) for x, y in current]
        start = time.perf_counter()
        value = seed_coverage_fraction(world.field, vecs, rs, res)
        seed_s += time.perf_counter() - start
        if value != world.field.coverage_fraction(vecs, rs, res):
            raise AssertionError("seed coverage diverged from library scan")
    return seed_s / rounds * 1000.0
