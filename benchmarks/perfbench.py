"""Spatial-subsystem and CPVF performance benchmarks.

Measures the hot queries the spatial subsystem accelerates —
neighbor-table construction, one full CPVF period, and coverage
re-measurement after movement — plus the sweep, service, scenario,
lifecycle and degraded-network entries.  Every measurement also checks
that the fast path produces results identical to a brute-force
reference (``tests/oracles``), so the numbers can never drift away from
correctness.

The seed algorithms these rows were once compared against are not
re-measured by ``benchmarks/run_perf.py``: their ``seed_ms`` columns in
``BENCH_perf.json`` are frozen and carried forward.  The seed timers at
the end of this module time the seed re-implementations kept with the
other reference oracles in ``tests/oracles``; the perf floors of
``benchmarks/test_perf_spatial.py`` use them.

Import it with the repository root on ``sys.path`` (``pytest.ini``,
``benchmarks/run_perf.py`` and ``benchmarks/contracts.py`` arrange
this): ``from benchmarks.perfbench import ...``.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.api import SweepRunner, default_job_count, execute_run
from repro.core import CPVFScheme
from repro.experiments.common import (
    ExperimentScale,
    SMOKE_SCALE,
    make_scenario,
)
from repro.geometry import Vec2
from repro.sim import World
from repro.spatial import IncrementalCoverage, NeighborCache
from tests.oracles import (
    BruteRadio,
    SeedCPVF,
    seed_coverage_fraction,
    seed_neighbor_table,
    uncached,
)

__all__ = [
    "best_of",
    "perf_world",
    "time_cpvf_periods",
    "cpvf_period_s",
    "measure_neighbor_table",
    "measure_cpvf_period",
    "measure_telemetry_overhead",
    "measure_coverage",
    "measure_sweep_throughput",
    "measure_sweep_service",
    "measure_scenario_generation",
    "measure_lifecycle_recovery",
    "measure_degraded_coverage",
    "measure_obstacle_cpvf",
    "measure_obstacle_floor",
    "measure_churn_cpvf",
    "count_queries",
    "run_perf_suite",
    "PERF_ENTRIES",
    "seed_neighbor_table_ms",
    "seed_cpvf_period_ms",
    "seed_coverage_ms",
]


def best_of(func: Callable[[], object], repeats: int, rounds: int = 3) -> float:
    """Best mean seconds per call over ``rounds`` timing rounds."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            func()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


def perf_world(n: int, seed: int, clustered: bool) -> World:
    """The benchmark world of ``n`` sensors (1000 m field up to n = 10^4)."""
    # Populations beyond the paper's 10^4 keep the 10^4 row's density
    # (field side grows with sqrt(n)); a fixed 1000 m field at n = 10^5
    # would pack ~100 sensors per communication disk and measure a
    # pathological regime no deployment targets.  Rows at n <= 10^4 keep
    # the historical field so committed numbers stay comparable.
    field_size = 1000.0 if n <= 10000 else 1000.0 * math.sqrt(n / 10000.0)
    scale = ExperimentScale(field_size=field_size, sensor_count=n)
    return make_scenario(
        scale,
        sensor_count=n,
        seed=seed,
        placement="clustered" if clustered else "uniform",
    ).build_world()


# ----------------------------------------------------------------------
# Neighbor tables
# ----------------------------------------------------------------------
def measure_neighbor_table(
    n: int, seed: int = 3, clustered: bool = False, repeats: int = 10
) -> Dict[str, float]:
    """Neighbor-table build time on one layout.

    Each timed call builds the table from scratch through a fresh
    :class:`~repro.spatial.NeighborCache` (index build, pair query,
    per-sensor slicing and the defensive copy the world hands out).
    """
    world = perf_world(n, seed, clustered)
    brute = BruteRadio(world.config.communication_range)
    if world.neighbor_table() != brute.neighbor_table(world.sensors):
        raise AssertionError("indexed neighbor table diverged from brute table")
    # Several short best-of rounds: the build is sub-10ms, so a single
    # noisy round on a loaded machine would dominate otherwise.
    fast_s = best_of(
        lambda: NeighborCache(world).neighbor_table(), repeats, rounds=5
    )
    return {
        "n": n,
        "layout": "clustered" if clustered else "uniform",
        "fast_ms": fast_s * 1000.0,
    }


# ----------------------------------------------------------------------
# CPVF periods
# ----------------------------------------------------------------------
def time_cpvf_periods(
    world: World, scheme, periods: int, telemetry=None
) -> float:
    """Mean seconds per period of ``scheme`` on ``world``.

    One warm-up period runs first.  ``telemetry`` (a
    :class:`repro.obs.Telemetry`) is installed on the world *after* the
    warm-up step, so its spans and counters cover exactly the ``periods``
    timed steps.
    """
    scheme.initialize(world)
    scheme.step(world)  # warm-up period
    if telemetry is not None:
        world.telemetry = telemetry
    start = time.perf_counter()
    for _ in range(periods):
        scheme.step(world)
    return (time.perf_counter() - start) / periods


def cpvf_period_s(
    n: int, seed: int = 3, periods: int = 4, telemetry=None
) -> float:
    """Mean seconds per CPVF period on the clustered layout."""
    return time_cpvf_periods(
        perf_world(n, seed, clustered=True), CPVFScheme(), periods, telemetry
    )


def measure_cpvf_period(
    n: int, seed: int = 3, periods: int = None
) -> Dict[str, float]:
    """Cost of one full CPVF decision period.

    Six timed periods up to n = 2000, three beyond (one period at
    n = 10^4 already takes seconds).
    """
    if periods is None:
        periods = 6 if n <= 2000 else 3
    return {"n": n, "fast_ms": cpvf_period_s(n, seed, periods) * 1000.0}


def measure_telemetry_overhead(
    n: int = 2000, seed: int = 3, periods: int = 6, pairs: int = 7
) -> Dict[str, float]:
    """Live-telemetry cost on the CPVF hot path.

    Runs ``pairs`` pairs of identical worlds in the configuration of the
    ``cpvf_period`` n = 2000 row, one untraced (``NULL_TELEMETRY``) and
    one traced (a live ``Telemetry``).  The two
    worlds of a pair step in lockstep, alternating which goes first, so
    every timed period of the traced world has an untraced twin doing the
    same work (telemetry never perturbs the run) within a fraction of a
    second of it.  The entry records the median of the per-period
    overheads, with the mean period times beside it: on a shared host,
    windows taken seconds apart drift by more than the overhead being
    measured.  The observability contract is that the traced path stays
    within a few percent of the untraced one; the
    ``obs.committed_overhead`` entry of ``benchmarks/contracts.py`` reads
    this entry.
    """
    from repro.obs import Telemetry

    untraced: List[float] = []
    traced: List[float] = []
    for i in range(pairs):
        worlds = []
        for live in (False, True):
            world = perf_world(n, seed, clustered=True)
            scheme = CPVFScheme()
            scheme.initialize(world)
            scheme.step(world)  # warm-up period
            if live:
                world.telemetry = Telemetry()
            worlds.append((live, world, scheme))
        for k in range(periods):
            order = worlds if (i + k) % 2 == 0 else worlds[::-1]
            for live, world, scheme in order:
                start = time.perf_counter()
                scheme.step(world)
                (traced if live else untraced).append(time.perf_counter() - start)
    overheads = [(t - u) / u * 100.0 for u, t in zip(untraced, traced)]
    return {
        "n": n,
        "periods": periods,
        "pairs": pairs,
        "untraced_ms": float(np.mean(untraced)) * 1000.0,
        "traced_ms": float(np.mean(traced)) * 1000.0,
        "overhead_pct": float(np.median(overheads)),
    }


# ----------------------------------------------------------------------
# Coverage
# ----------------------------------------------------------------------
def measure_coverage(
    n: int,
    seed: int = 3,
    moved_fraction: float = 0.02,
    rounds: int = 5,
) -> Dict[str, float]:
    """Incremental coverage re-measurement after small position changes.

    Simulates the engine's trace pattern: measure, move a few sensors,
    measure again; the incremental tracker only re-rasterises the moved
    disks.  Its answer is checked for exact equality with the library's
    brute-force scan every round.
    """
    world = perf_world(n, seed, clustered=False)
    rs = world.config.sensing_range
    res = world.config.coverage_resolution
    positions = np.array([(s.position.x, s.position.y) for s in world.sensors])
    tracker = IncrementalCoverage(world.field, rs, res)
    tracker.update(positions)

    fast_s = 0.0
    for current in coverage_moves(
        positions, world.field.width, seed, moved_fraction, rounds
    ):
        start = time.perf_counter()
        tracker.update(current)
        fast_value = tracker.covered_fraction()
        fast_s += time.perf_counter() - start

        vecs = [Vec2(x, y) for x, y in current]
        if world.field.coverage_fraction(vecs, rs, res) != fast_value:
            raise AssertionError("incremental coverage diverged from brute scan")
    return {
        "n": n,
        "moved_per_round": max(1, int(n * moved_fraction)),
        "fast_ms": fast_s / rounds * 1000.0,
    }


def coverage_moves(
    positions: np.ndarray,
    width: float,
    seed: int,
    moved_fraction: float,
    rounds: int,
):
    """The per-round position arrays :func:`measure_coverage` times.

    Moves ``moved_fraction`` of the sensors to fresh uniform positions
    each round (in place) and yields the array; the same arguments
    replay the same sequence.
    """
    rng = np.random.default_rng(seed)
    n = len(positions)
    moved = max(1, int(n * moved_fraction))
    for _ in range(rounds):
        idx = rng.choice(n, size=moved, replace=False)
        positions[idx] = rng.uniform(0, width, size=(moved, 2))
        yield positions


# ----------------------------------------------------------------------
# Sweep throughput (serial vs process-sharded SweepRunner)
# ----------------------------------------------------------------------
def measure_sweep_throughput(
    jobs: int = None, seed: int = 3
) -> Dict[str, float]:
    """Serial vs sharded execution of a smoke-scale Fig 9 sweep.

    Runs the same declarative sweep through ``SweepRunner(jobs=1)`` and
    ``SweepRunner(jobs=cpu_count)`` and asserts both record lists equal a
    plain ``execute_run`` loop (the executor's determinism contract)
    while timing both.  On a
    single-core machine the sharded path mostly measures process overhead;
    the point of the entry is tracking the trajectory as sweeps grow.
    """
    from repro.experiments.fig9 import sweep_fig9

    sweep = sweep_fig9(
        SMOKE_SCALE,
        sensor_counts=[120, 240],
        range_pairs=[(40.0, 60.0), (60.0, 60.0)],
        seed=seed,
    )
    jobs = jobs if jobs is not None else default_job_count()
    reference = [execute_run(spec) for spec in sweep.runs]

    start = time.perf_counter()
    serial_records = SweepRunner(jobs=1).run(sweep)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded_records = SweepRunner(jobs=jobs).run(sweep)
    sharded_s = time.perf_counter() - start

    if serial_records != reference or sharded_records != reference:
        raise AssertionError("sweep records diverged from plain execute_run")
    return {
        "runs": len(sweep.runs),
        "jobs": jobs,
        "seed_ms": serial_s * 1000.0,
        "fast_ms": sharded_s * 1000.0,
        "speedup": serial_s / sharded_s if sharded_s > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# Sweep service (many clients over a shared run store)
# ----------------------------------------------------------------------
def measure_sweep_service(clients: int = 4, seed: int = 3) -> Dict[str, float]:
    """Sustained throughput of the sweep executor under many clients.

    A synthetic many-client workload: ``clients`` overlapping mini-sweeps
    (adjacent clients share half their cells) run one after another
    through one :class:`~repro.api.SweepRunner` over a fresh store, then
    again against the warm store through a second runner.  The
    determinism contract is asserted while timing — the cold pass computes
    exactly the unique cells (a client's shared cells are store hits,
    written through by the client before it) and every client's records
    equal a plain ``execute_run`` loop; the warm pass computes nothing.
    Reported throughput is cells served per second, cache hits included
    — the number a dashboard of this service would call "sustained
    runs/s".
    """
    import tempfile

    from repro.api import SweepSpec
    from repro.api.scenario import ScenarioSpec

    scenario = ScenarioSpec(
        field_size=300.0,
        sensor_count=12,
        communication_range=60.0,
        sensing_range=40.0,
        duration=20.0,
        coverage_resolution=15.0,
        seed=seed,
    )
    ranges = (40.0, 50.0, 60.0, 70.0)
    sweeps = []
    for i in range(clients):
        window = sorted({ranges[i % len(ranges)], ranges[(i + 1) % len(ranges)]})
        sweeps.append(
            SweepSpec.grid(
                f"svc-client-{i}",
                scenario,
                schemes=("CPVF",),
                axes={"communication_range": window},
            )
        )
    total_cells = sum(len(sweep.runs) for sweep in sweeps)
    unique_cells = len(
        {spec.fingerprint() for sweep in sweeps for spec in sweep.runs}
    )
    reference = [[execute_run(spec) for spec in sweep.runs] for sweep in sweeps]

    def drive(store_root: str):
        runner = SweepRunner(store=store_root)
        start = time.perf_counter()
        results = [runner.run(sweep) for sweep in sweeps]
        return results, runner.metrics, time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="svc-bench-") as store_root:
        cold_records, cold, cold_s = drive(store_root)
        warm_records, warm, warm_s = drive(store_root)

    if cold.computed != unique_cells:
        raise AssertionError(
            f"cold service computed {cold.computed} cells, expected the "
            f"{unique_cells} unique ones"
        )
    if warm.computed != 0 or warm.store_hits != total_cells:
        raise AssertionError(
            f"warm service recomputed {warm.computed} cells "
            f"({warm.store_hits}/{total_cells} store hits)"
        )
    if cold_records != reference or warm_records != reference:
        raise AssertionError("service records diverged from plain execute_run")
    return {
        "clients": clients,
        "cells_requested": total_cells,
        "unique_cells": unique_cells,
        "cold_ms": cold_s * 1000.0,
        "cold_runs_per_s": total_cells / cold_s if cold_s > 0 else float("inf"),
        "cold_hit_rate": cold.cache_hit_rate(),
        "warm_ms": warm_s * 1000.0,
        "warm_runs_per_s": total_cells / warm_s if warm_s > 0 else float("inf"),
        "warm_hit_rate": warm.cache_hit_rate(),
    }


# ----------------------------------------------------------------------
# Scenario generation (procedural layouts + validation)
# ----------------------------------------------------------------------
def measure_scenario_generation(
    size: float = 1000.0, seeds: Sequence[int] = (1, 2, 3, 4, 5)
) -> List[Dict[str, object]]:
    """Generation + validation throughput of every procedural layout.

    Each sample generates a fresh field from a fresh seed (generation is
    seed-deterministic, so re-timing one seed would only measure the
    field's obstacle-mask cache) and runs under the shared
    :class:`~repro.scenarios.validate.ScenarioValidator` — the number
    reported is the cost a sweep pays per scenario materialisation.
    """
    from repro.api import layout_registry
    from repro.scenarios import ScenarioValidator

    validator = ScenarioValidator()
    rows: List[Dict[str, object]] = []
    for layout in ("maze", "rooms", "spiral", "clutter", "random-obstacles"):
        builder = layout_registry.get(layout)

        def generate_all() -> None:
            for seed in seeds:
                field = builder(size, seed=seed)
                if not validator.validate_field(field).ok:
                    raise AssertionError(
                        f"{layout} produced an invalid field for seed {seed}"
                    )

        per_call = best_of(generate_all, repeats=1, rounds=3) / len(seeds)
        rows.append(
            {
                "layout": layout,
                "size": size,
                "gen_ms": per_call * 1000.0,
                "scenarios_per_s": 1.0 / per_call if per_call > 0 else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Lifecycle recovery (fault injection + tree repair)
# ----------------------------------------------------------------------
def _median_run(spec, runs: int):
    """``(wall seconds, record)`` of the median of ``runs`` executions."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        record = execute_run(spec)
        samples.append((time.perf_counter() - start, record))
    samples.sort(key=lambda sample: sample[0])
    return samples[len(samples) // 2]


#: Engine phases the ``lifecycle_recovery`` rows break the wall time into:
#: the event timeline with its per-period recovery tracking, and the
#: scheme's own periods.
LIFECYCLE_PHASES = ("engine.fault_injection", "engine.scheme_step")


def measure_lifecycle_recovery(
    seed: int = 3, runs: int = 3
) -> List[Dict[str, float]]:
    """Cost and quality of recovering from a 20% mid-run kill.

    Runs the lifecycle suite's acceptance scenario (``mass-failure``: a
    fifth of the live population dies at 40% of the horizon on the open
    field) for both connectivity-aware schemes at the bench scale through
    ``RunSpec(profile=True)``, asserting the robustness contract while
    measuring — each scheme must climb back to at least 90% of its
    pre-event coverage by the end of the run.  Each row holds the median
    of ``runs`` wall times and that run's :data:`LIFECYCLE_PHASES` span
    totals.
    """
    from repro.api import RunSpec
    from repro.experiments.common import BENCH_SCALE
    from repro.experiments.common import make_scenario as _make_scenario
    from repro.experiments.lifecycle import lifecycle_events

    events = lifecycle_events("mass-failure", BENCH_SCALE)
    scenario = _make_scenario(BENCH_SCALE, seed=seed, events=events)
    rows: List[Dict[str, float]] = []
    for scheme in ("CPVF", "FLOOR"):
        elapsed, record = _median_run(
            RunSpec(scenario=scenario, scheme=scheme, profile=True), runs
        )
        outcome = record.events[0]
        if outcome.recovery_ratio < 0.9:
            raise AssertionError(
                f"{scheme} recovered only {outcome.recovery_ratio:.1%} of its "
                "pre-failure coverage (contract: >= 90%)"
            )
        phases = record.telemetry.phases
        rows.append(
            {
                "scheme": scheme,
                "n": scenario.sensor_count,
                "runs": runs,
                "run_ms": elapsed * 1000.0,
                "phases_ms": {
                    name: phases[name].seconds * 1000.0
                    for name in LIFECYCLE_PHASES
                },
                "pre_coverage": outcome.pre_coverage,
                "post_coverage": outcome.post_coverage,
                "recovery_ratio": outcome.recovery_ratio,
                "time_to_recover": outcome.time_to_recover,
                "extra_distance": outcome.extra_distance,
                "message_burst": outcome.message_burst,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Degraded coverage (unreliable-network backend)
# ----------------------------------------------------------------------
def measure_degraded_coverage(
    seed: int = 3, loss: float = 0.1
) -> List[Dict[str, float]]:
    """Coverage retained under packet loss, per paper scheme.

    Runs both connectivity-aware schemes at the bench scale twice on the
    same scenario — once on the perfect network and once under
    ``loss`` per-message drop probability with the default retry budget —
    timing the degraded run and asserting the robustness contract while
    measuring: each scheme must retain at least 85% of its own
    perfect-network coverage.  The degraded run is profiled so the row
    also carries the ``net.*`` counters (drops, retries, timeouts) that
    explain the message overhead.
    """
    from repro.api import NetworkSpec, RunSpec, execute_run
    from repro.experiments.common import BENCH_SCALE
    from repro.experiments.common import make_scenario as _make_scenario

    scenario = _make_scenario(BENCH_SCALE, seed=seed)
    network = NetworkSpec(model="unreliable", loss=loss)
    rows: List[Dict[str, float]] = []
    for scheme in ("CPVF", "FLOOR"):
        perfect = execute_run(RunSpec(scenario=scenario, scheme=scheme))
        start = time.perf_counter()
        degraded = execute_run(
            RunSpec(
                scenario=scenario, scheme=scheme, network=network, profile=True
            )
        )
        elapsed = time.perf_counter() - start
        ratio = (
            degraded.coverage / perfect.coverage
            if perfect.coverage > 0
            else 0.0
        )
        if ratio < 0.85:
            raise AssertionError(
                f"{scheme} retained only {ratio:.1%} of its perfect-network "
                f"coverage at {loss:.0%} loss (contract: >= 85%)"
            )
        counters = (
            degraded.telemetry.counters if degraded.telemetry is not None else {}
        )
        rows.append(
            {
                "scheme": scheme,
                "n": scenario.sensor_count,
                "loss": loss,
                "run_ms": elapsed * 1000.0,
                "perfect_coverage": perfect.coverage,
                "degraded_coverage": degraded.coverage,
                "coverage_ratio": ratio,
                "message_overhead": (
                    degraded.total_messages / perfect.total_messages
                    if perfect.total_messages > 0
                    else 0.0
                ),
                "net_dropped": counters.get("net.dropped", 0),
                "net_retries": counters.get("net.retries", 0),
                "net_timeouts": counters.get("net.timeouts", 0),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Whole deployments: the paper's obstacle field, churn on a lossy network
# ----------------------------------------------------------------------
#: Periods of the ``obstacle_cpvf`` and ``obstacle_floor`` deployments
#: (100 of the figures' 250, like e2ebench's ``paper-obstacle`` workload).
OBSTACLE_PERIODS = 100
#: Phases the ``obstacle_cpvf`` row breaks the wall time into.
OBSTACLE_CPVF_PHASES = ("cpvf.table", "cpvf.forces", "cpvf.moves")
#: Counters of the ``obstacle_cpvf`` row: the whole neighbour tables
#: built (one per period whose layout changed).
OBSTACLE_CPVF_COUNTERS = ("neighbors.table_builds",)
#: Phases the ``obstacle_floor`` row breaks the wall time into.
OBSTACLE_FLOOR_PHASES = (
    "floor.expansion_points",
    "floor.invitations",
    "floor.relocation_starts",
    "floor.relocations",
)
#: Counters of the ``obstacle_floor`` row: the expansion planner's
#: answers reused and recomputed, its FLG, BLG and IFLG part
#: recomputations, the IFLG neighbours those reused and searched again,
#: the registry probes it made, the memo entries its change routing
#: examined, and the whole neighbour tables built.
OBSTACLE_FLOOR_COUNTERS = (
    "floor.expansion_reused",
    "floor.expansion_recomputed",
    "floor.expansion_recomputed.flg",
    "floor.expansion_recomputed.blg",
    "floor.expansion_recomputed.iflg",
    "floor.iflg_neighbors_reused",
    "floor.iflg_neighbors_computed",
    "floor.coverage_queries",
    "floor.expansion_checked",
    "neighbors.table_builds",
)
#: Counts of the ``obstacle_cpvf`` and ``obstacle_floor`` rows taken
#: by :func:`count_queries` in an untimed pass: the polygon predicate
#: calls (``Polygon.contains_xy``, ``crosses_interior_xy`` and the
#: straight-move kernel ``first_entry_xy``, a crossing test's own kernel
#: call and a move clip's end-point tests included), the neighbour
#: snapshots captured and the field queries behind them (``field.*``,
#: calls of each).
QUERY_COUNTERS = {
    "geometry.polygon_tests": (
        "repro.geometry.polygon:Polygon.contains_xy",
        "repro.geometry.polygon:Polygon.crosses_interior_xy",
        "repro.geometry.polygon:Polygon.first_entry_xy",
    ),
    "neighbors.snapshots": ("repro.spatial.cache:NeighborSnapshot.__init__",),
    "field.is_free": ("repro.field.field:Field.is_free_xy",),
    "field.segment_blocked": ("repro.field.field:Field.segment_blocked_xy",),
    "field.max_free_travel": ("repro.field.field:Field.max_free_travel",),
    "field.nearest_free": ("repro.field.field:Field.nearest_free",),
    "field.boundary_pieces": ("repro.field.field:Field.boundary_pieces_within",),
    "field.obstacle_force": (
        "repro.core.virtual_force:VirtualForceModel.force_from_obstacles",
    ),
}
#: Lifecycle scripts of the ``churn_cpvf`` deployment: e2ebench's
#: ``churn-lossy`` CPVF setting.
CHURN_SCRIPTS = ("interior-cascade", "reinforcements")
#: Lifecycle scripts of the ``churn_floor`` deployment: e2ebench's
#: ``churn-lossy`` FLOOR setting (the door-slam wall appears and clears).
CHURN_FLOOR_SCRIPTS = ("door-slam",) + CHURN_SCRIPTS
#: Phases the ``churn_cpvf`` row breaks the wall time into
#: (``cpvf.repair`` is the parent-change share of ``cpvf.moves``).
CHURN_CPVF_PHASES = ("cpvf.table", "cpvf.forces", "cpvf.moves", "cpvf.repair")
#: Counters of the ``churn_cpvf`` row: parent-change attempts, the ones
#: that found a parent, the lock handshakes the lossy network timed out,
#: the subtree walks (the retry cache's misses) behind the attempts, and
#: the sensing disks the coverage diff rasterised.
CHURN_CPVF_COUNTERS = (
    "cpvf.repair_attempts",
    "cpvf.parent_changes",
    "cpvf.lock_aborts",
    "cpvf.subtree_walks",
    "coverage.disks",
)


#: Phases the ``churn_floor`` row breaks the wall time into.
CHURN_FLOOR_PHASES = (
    "floor.expansion_points",
    "floor.invitations",
    "floor.relocations",
    "floor.relocation_starts",
    "engine.fault_injection",
)
#: Counters of the ``churn_floor`` row: the expansion planner's
#: recomputations (in all, by part, and the parts an obstacle change
#: reached), the expansion rounds that searched instead of reusing the
#: last round's points, the memo entries the change routing examined,
#: and the sensing disks the coverage diff rasterised.
CHURN_FLOOR_COUNTERS = (
    "floor.expansion_recomputed",
    "floor.expansion_recomputed.flg",
    "floor.expansion_recomputed.blg",
    "floor.expansion_recomputed.iflg",
    "floor.expansion_recomputed.field",
    "floor.rounds_searched",
    "floor.rounds_reused",
    "floor.expansion_checked",
    "coverage.disks",
)


def count_queries(spec) -> Dict[str, int]:
    """Calls of each :data:`QUERY_COUNTERS` group in one run of ``spec``.

    The methods are wrapped with counters for this run only and restored
    afterwards, so no counter sits on a production path; the run is
    deterministic, so the counts are host-independent.
    """
    import importlib

    counts = dict.fromkeys(QUERY_COUNTERS, 0)
    patched = []

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name, targets in QUERY_COUNTERS.items():
        for target in targets:
            module_name, qualified = target.split(":")
            class_name, attr = qualified.split(".")
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
            patched.append((cls, attr, original))
            setattr(cls, attr, counting(name, original))
    try:
        execute_run(spec)
    finally:
        for cls, attr, original in reversed(patched):
            setattr(cls, attr, original)
    return counts


def _measure_deployment(
    scenario,
    network,
    scheme: str,
    phases: Sequence[str],
    runs: int,
    counters: Sequence[str] = (),
    query_counts: bool = False,
) -> Dict[str, object]:
    """Median wall time of ``runs`` deployments of ``scheme``.

    Runs ``scenario`` under ``network`` (``None`` for the perfect one)
    through ``RunSpec(profile=True)``.  The row holds the median run's
    wall time, its ``phases`` span totals and, when ``counters`` names
    any, those telemetry counters; with ``query_counts`` the counters
    also hold :func:`count_queries` of one more, untimed run.
    """
    from repro.api import RunSpec

    spec = RunSpec(scenario=scenario, scheme=scheme, network=network, profile=True)
    wall_s, record = _median_run(spec, runs)
    summary = record.telemetry
    row = {
        "n": scenario.sensor_count,
        "layout": scenario.layout,
        "scheme": scheme,
        "seed": scenario.seed,
        "periods": record.periods_executed,
        "runs": runs,
        "wall_ms": wall_s * 1000.0,
        "phases_ms": {
            name: summary.phases[name].seconds * 1000.0 for name in phases
        },
        "coverage": record.coverage,
    }
    if counters:
        row["counters"] = {name: summary.counters.get(name, 0) for name in counters}
    if query_counts:
        row.setdefault("counters", {}).update(count_queries(spec))
    return row


def _obstacle_scenario(seed: int):
    """The bench scale (500 m field, n = 70, clustered start) on the
    paper's two-obstacle field for :data:`OBSTACLE_PERIODS` periods."""
    from repro.experiments.common import BENCH_SCALE

    scale = dataclasses.replace(BENCH_SCALE, duration=float(OBSTACLE_PERIODS))
    return make_scenario(scale, seed=seed, layout="two-obstacle")


def measure_obstacle_cpvf(seed: int = 1, runs: int = 5) -> Dict[str, object]:
    """Wall time of one CPVF deployment on the paper's two-obstacle field,
    with its :data:`OBSTACLE_CPVF_PHASES` span totals and
    :data:`OBSTACLE_CPVF_COUNTERS`, plus the :data:`QUERY_COUNTERS`."""
    return _measure_deployment(
        _obstacle_scenario(seed),
        None,
        "CPVF",
        OBSTACLE_CPVF_PHASES,
        runs,
        OBSTACLE_CPVF_COUNTERS,
        query_counts=True,
    )


def measure_obstacle_floor(seed: int = 1, runs: int = 5) -> Dict[str, object]:
    """Wall time of one FLOOR deployment on the paper's two-obstacle field,
    with its :data:`OBSTACLE_FLOOR_PHASES` span totals and the
    :data:`OBSTACLE_FLOOR_COUNTERS` of the expansion planner, plus the
    :data:`QUERY_COUNTERS`."""
    return _measure_deployment(
        _obstacle_scenario(seed),
        None,
        "FLOOR",
        OBSTACLE_FLOOR_PHASES,
        runs,
        OBSTACLE_FLOOR_COUNTERS,
        query_counts=True,
    )


def _churn_deployment(
    scheme: str,
    scripts: Sequence[str],
    phases: Sequence[str],
    counters: Sequence[str],
    seed: int,
    runs: int,
) -> Dict[str, object]:
    """:func:`_measure_deployment` of ``scheme`` in e2ebench's
    ``churn-lossy`` setting: the obstacle-free bench field (500 m,
    n = 70, 250 s), the ``scripts``' lifecycle events, 10% per-message
    loss and neighbour tables up to 5 periods stale."""
    from repro.api import NetworkSpec
    from repro.experiments.common import BENCH_SCALE
    from repro.experiments.lifecycle import lifecycle_events

    events = ()
    for script in scripts:
        events += lifecycle_events(script, BENCH_SCALE)
    return _measure_deployment(
        make_scenario(BENCH_SCALE, seed=seed, events=events),
        NetworkSpec("unreliable", loss=0.1, staleness=5),
        scheme,
        phases,
        runs,
        counters,
    )


def measure_churn_cpvf(seed: int = 1, runs: int = 5) -> Dict[str, object]:
    """Wall time of one CPVF deployment under churn on a lossy network
    (the :data:`CHURN_SCRIPTS` events), with its
    :data:`CHURN_CPVF_PHASES` span totals and the
    :data:`CHURN_CPVF_COUNTERS`."""
    return _churn_deployment(
        "CPVF", CHURN_SCRIPTS, CHURN_CPVF_PHASES, CHURN_CPVF_COUNTERS, seed, runs
    )


def measure_churn_floor(seed: int = 1, runs: int = 5) -> Dict[str, object]:
    """Wall time of one FLOOR deployment under churn on a lossy network
    (the :data:`CHURN_FLOOR_SCRIPTS` events), with its
    :data:`CHURN_FLOOR_PHASES` span totals and the
    :data:`CHURN_FLOOR_COUNTERS`."""
    return _churn_deployment(
        "FLOOR",
        CHURN_FLOOR_SCRIPTS,
        CHURN_FLOOR_PHASES,
        CHURN_FLOOR_COUNTERS,
        seed,
        runs,
    )


# ----------------------------------------------------------------------
# Full suite
# ----------------------------------------------------------------------
#: Default population sizes of the per-population entries and of the
#: large-scale CPVF rows.
DEFAULT_NS = (100, 500, 1000)
SCALE_NS = (2000, 5000, 10000)

#: Entry name -> builder ``(ns, seed) -> value``.  ``benchmarks/run_perf.py``
#: runs this table plus the entries that need the ``tests/oracles``
#: references (``cpvf_convergence``).
PERF_ENTRIES: Dict[str, Callable] = {
    "neighbor_table": lambda ns, seed: [
        measure_neighbor_table(n, seed=seed, clustered=clustered)
        for n in ns
        for clustered in (False, True)
    ],
    "cpvf_period": lambda ns, seed: [
        measure_cpvf_period(n, seed=seed) for n in ns
    ],
    "telemetry_overhead": lambda ns, seed: [
        measure_telemetry_overhead(seed=seed)
    ],
    "coverage": lambda ns, seed: [
        measure_coverage(n, seed=seed) for n in ns if n <= 1000
    ],
    "sweep_throughput": lambda ns, seed: [measure_sweep_throughput(seed=seed)],
    "sweep_service": lambda ns, seed: [measure_sweep_service(seed=seed)],
    "scenario_generation": lambda ns, seed: measure_scenario_generation(),
    "lifecycle_recovery": lambda ns, seed: measure_lifecycle_recovery(seed=seed),
    "degraded_coverage": lambda ns, seed: measure_degraded_coverage(seed=seed),
    # One fixed scenario each: the paper-obstacle CPVF and FLOOR
    # deployments and the churn-lossy CPVF and FLOOR deployments at seed 1.
    "obstacle_cpvf": lambda ns, seed: [measure_obstacle_cpvf()],
    "obstacle_floor": lambda ns, seed: [measure_obstacle_floor()],
    "churn_cpvf": lambda ns, seed: [measure_churn_cpvf()],
    "churn_floor": lambda ns, seed: [measure_churn_floor()],
}


def run_perf_suite(
    entries: Dict[str, Callable],
    ns: Sequence[int] = None,
    seed: int = 3,
    only: Sequence[str] = None,
) -> Dict[str, object]:
    """All (or a subset of) ``entries`` over the requested population sizes.

    ``entries`` maps names to builders like :data:`PERF_ENTRIES`; ``ns``
    applies to the per-population entries (``neighbor_table``,
    ``cpvf_period``, ``coverage``); ``only`` restricts the run to a
    subset of ``entries`` so one entry can be regenerated without
    re-running the whole suite.
    """
    names = list(entries) if only is None else list(only)
    unknown = [name for name in names if name not in entries]
    if unknown:
        raise KeyError(
            f"unknown perf entries {unknown}; choose from {sorted(entries)}"
        )
    results: Dict[str, object] = {
        "description": (
            "Spatial-index + CPVF benchmarks: fast paths, with "
            "parity/convergence asserted before or while timing.  The "
            "seed_ms columns are frozen measurements of the seed "
            "algorithms, carried forward on regeneration (speedup is "
            "recomputed against the fresh fast_ms).  The cpvf_period "
            "rows from n = 2000 up ran their seed_ms on the fast "
            "neighbour infrastructure (the dense seed matrices would not "
            "fit in memory at n >= 5000), so it understates the true "
            "seed cost."
        ),
        "field": "1000x1000 m, rc=60, rs=40, coverage resolution 10 m",
    }
    for name in names:
        entry_ns = ns
        if entry_ns is None:
            entry_ns = (
                DEFAULT_NS + SCALE_NS if name == "cpvf_period" else DEFAULT_NS
            )
        results[name] = entries[name](entry_ns, seed)
    return results


# ----------------------------------------------------------------------
# Seed baselines (the perf floors of benchmarks/test_perf_spatial.py)
# ----------------------------------------------------------------------
def seed_neighbor_table_ms(
    n: int, seed: int = 3, clustered: bool = False, repeats: int = 10
) -> float:
    """Seed neighbour-table build time on the ``measure_neighbor_table`` layout."""
    world = perf_world(n, seed, clustered)
    sensors = world.sensors
    rc = world.config.communication_range
    if seed_neighbor_table(sensors, rc) != world.neighbor_table():
        raise AssertionError("seed neighbor table diverged from indexed table")
    seed_s = best_of(lambda: seed_neighbor_table(sensors, rc), repeats, rounds=5)
    return seed_s * 1000.0


def seed_cpvf_period_ms(n: int, seed: int = 3, periods: int = 6) -> float:
    """Seed CPVF period time on the ``measure_cpvf_period`` layout.

    The seed configuration: :class:`~tests.oracles.SeedCPVF` (sequential
    decisions, the literal step ladder) on an uncached world with
    brute-force neighbour queries and coverage.
    """
    world = uncached(perf_world(n, seed, clustered=True))
    seed_s = time_cpvf_periods(world, SeedCPVF(), periods)
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
