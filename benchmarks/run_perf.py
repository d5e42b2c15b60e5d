#!/usr/bin/env python
"""Regenerate the repo-root ``BENCH_perf.json`` perf trajectory.

Usage (from the repo root)::

    python benchmarks/run_perf.py                      # full suite
    python benchmarks/run_perf.py --only cpvf_period   # one entry only
    python benchmarks/run_perf.py --only cpvf_period --n 2000 10000
    python benchmarks/run_perf.py --only cpvf_period --n 100000
    python benchmarks/run_perf.py --list               # entry names

Runs the spatial-subsystem benchmarks of ``benchmarks/perfbench.py``
(neighbor-table build, CPVF periods, coverage re-measurement, sweep
throughput, scenario generation, ...), asserting fast-path/brute parity
while timing, plus the
``cpvf_convergence`` entry defined here: the CPVF plateau against the
seed sequential dynamics (``tests.oracles.SeedCPVF``),
failing when they differ by more than two coverage points.  The results
are written next to this repository's README so future changes can
track the perf trajectory.

The seed algorithms are not re-measured: every re-measured row without
a ``seed_ms`` of its own inherits the committed row's frozen ``seed_ms``
unchanged, and its ``speedup`` is recomputed against the fresh
``fast_ms``.  A ``before_ms`` column (the same measurement at the commit
before a perf change, on the same host) is carried the same way.  The
repository root is put on ``sys.path`` next to ``src``:
``benchmarks.perfbench`` is imported from it, and the brute and seed
references it checks against live in ``tests/oracles``.

``--only ENTRY [ENTRY ...]`` regenerates a subset of entries and merges
them into the existing ``BENCH_perf.json`` — the untouched entries are
preserved verbatim, so one noisy row can be re-measured without paying
for the whole suite.  ``--n N [N ...]`` overrides the population sizes
of the per-population entries (``neighbor_table``, ``cpvf_period``,
``coverage``); without it, ``cpvf_period`` runs the classic sizes
(100/500/1000) plus the scale rows (2000/5000/10000).  Sizes beyond
10000 (e.g. ``--n 100000``) grow the field with sqrt(n) so density
matches the n = 10^4 row.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from repro.core import CPVFScheme  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentScale,
    make_scenario,
)
from benchmarks.perfbench import PERF_ENTRIES, run_perf_suite  # noqa: E402
from repro.sim import SimulationEngine  # noqa: E402
from tests.oracles import SeedCPVF  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_perf.json"


def measure_cpvf_convergence(
    seed: int = 1, duration: float = 750.0, n: int = 240
) -> dict:
    """Coverage plateau of CPVF vs the seed dynamics.

    Runs the paper's Figure 3(a) scenario (240 sensors, rc = 60, rs = 40,
    obstacle-free 1000 m field, 750 s horizon) once under the seed
    sequential dynamics and once under ``CPVFScheme``, and reports both
    final coverages.  CPVF evaluates every force from start-of-period
    positions — the paper's sensors all decide simultaneously — while
    the seed lets each sensor see earlier movers; the plateaus must
    agree within two coverage points.
    """
    coverages = {}
    for label, scheme in (
        ("sequential", SeedCPVF()),
        ("cpvf", CPVFScheme()),
    ):
        scale = ExperimentScale(
            field_size=1000.0, sensor_count=n, duration=duration
        )
        world = make_scenario(scale, sensor_count=n, seed=seed).build_world()
        engine = SimulationEngine(world, scheme, trace_every=10**9)
        coverages[label] = engine.run().final_coverage
    gap = abs(coverages["cpvf"] - coverages["sequential"])
    if gap > 0.02:
        raise AssertionError(
            "CPVF plateau diverged from the seed dynamics: "
            f"{coverages['cpvf']:.4f} vs {coverages['sequential']:.4f}"
        )
    return {
        "scenario": "fig3a",
        "n": n,
        "duration_s": duration,
        "sequential_coverage": coverages["sequential"],
        "cpvf_coverage": coverages["cpvf"],
        "abs_gap": gap,
    }


#: The library's entries plus the ones that need ``tests.oracles``.
ENTRIES = dict(
    PERF_ENTRIES,
    cpvf_convergence=lambda ns, seed: [measure_cpvf_convergence(seed=seed)],
)


def _row_key(row):
    # Per-scheme entries (lifecycle_recovery, degraded_coverage) hold one
    # row per scheme at the same n.
    return (row["n"], row.get("layout", ""), row.get("scheme", ""))


def _is_row_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(r, dict) and "n" in r for r in value
    )


#: Frozen columns: measured once (the seed algorithms, the code before a
#: change) and carried forward unchanged when a row is re-measured.
FROZEN_COLUMNS = ("seed_ms", "before_ms")


def _carry_seed(old, new):
    """Carry the committed, frozen columns into re-measured rows.

    A fresh row without a :data:`FROZEN_COLUMNS` column of its own takes
    the committed row's value unchanged (``None`` included); a carried
    ``seed_ms`` has its ``speedup`` recomputed as seed over the fresh
    ``fast_ms``.  The row keeps the committed column order.  Rows with
    no committed counterpart are left without frozen columns.
    """
    if not (_is_row_list(old) and _is_row_list(new)):
        return new
    committed = {
        _row_key(r): r for r in old if any(c in r for c in FROZEN_COLUMNS)
    }
    rows = []
    for row in new:
        frozen = committed.get(_row_key(row))
        carried = [
            c for c in FROZEN_COLUMNS
            if frozen is not None and c in frozen and c not in row
        ]
        if not carried:
            rows.append(row)
            continue
        merged = dict(row, **{c: frozen[c] for c in carried})
        if "seed_ms" in carried:
            seed_ms = frozen["seed_ms"]
            fast_ms = row.get("fast_ms")
            merged["speedup"] = (
                None if seed_ms is None or not fast_ms else seed_ms / fast_ms
            )
        order = [k for k in frozen if k in merged]
        order += [k for k in merged if k not in order]
        rows.append({k: merged[k] for k in order})
    return rows


def _merge_entry(old, new):
    """Merge regenerated rows into a committed entry, row by row.

    Per-population entries are lists of row dicts keyed by
    ``(n, layout, scheme)``; a partial regeneration (``--only ... --n ...``)
    replaces only the re-measured rows and keeps the other committed
    rows, so re-running one noisy row cannot drop its siblings.  Entries
    that are not keyed row lists are replaced wholesale.
    """
    if not (_is_row_list(old) and _is_row_list(new)):
        return new
    rows = {_row_key(row): row for row in old}
    rows.update({_row_key(row): row for row in new})
    return [rows[key] for key in sorted(rows)]


def _print_results(results: dict) -> None:
    for section in ("neighbor_table", "cpvf_period", "coverage"):
        for row in results.get(section, ()):
            layout = f" {row['layout']}" if "layout" in row else ""
            # seed_ms / speedup are None on rows the seed algorithm never
            # ran on (n > 20000, or sizes with no committed seed row).
            if row.get("seed_ms") is None:
                seed_part = "seed=-"
            else:
                seed_part = f"seed(frozen)={row['seed_ms']:.2f} ms"
            speedup_part = (
                ""
                if row.get("speedup") is None
                else f" ({row['speedup']:.1f}x)"
            )
            print(
                f"{section}{layout} n={row['n']}: "
                f"{seed_part} fast={row['fast_ms']:.2f} ms"
                f"{speedup_part}"
            )
    for row in results.get("telemetry_overhead", ()):
        print(
            f"telemetry_overhead n={row['n']}: "
            f"untraced={row['untraced_ms']:.2f} ms "
            f"traced={row['traced_ms']:.2f} ms "
            f"(+{row['overhead_pct']:.1f}%)"
        )
    for row in results.get("cpvf_convergence", ()):
        print(
            f"cpvf_convergence {row['scenario']} n={row['n']}: "
            f"seed={row['sequential_coverage']:.4f} "
            f"cpvf={row['cpvf_coverage']:.4f} "
            f"(gap {row['abs_gap']:.4f})"
        )
    for row in results.get("sweep_throughput", ()):
        print(
            f"sweep_throughput runs={row['runs']}: "
            f"serial={row['seed_ms']:.0f} ms jobs={row['jobs']}"
            f"={row['fast_ms']:.0f} ms ({row['speedup']:.1f}x)"
        )
    for row in results.get("sweep_service", ()):
        print(
            f"sweep_service clients={row['clients']} "
            f"cells={row['cells_requested']} "
            f"(unique={row['unique_cells']}): "
            f"cold={row['cold_runs_per_s']:.1f} runs/s "
            f"(hit rate {row['cold_hit_rate']:.0%}) "
            f"warm={row['warm_runs_per_s']:.1f} runs/s "
            f"(hit rate {row['warm_hit_rate']:.0%})"
        )
    for row in results.get("scenario_generation", ()):
        print(
            f"scenario_generation {row['layout']} @ {row['size']:.0f} m: "
            f"{row['gen_ms']:.1f} ms/scenario "
            f"({row['scenarios_per_s']:.0f}/s)"
        )
    for row in results.get("lifecycle_recovery", ()):
        ttr = row["time_to_recover"]
        phases = " ".join(
            f"{name}={ms:.0f} ms" for name, ms in row.get("phases_ms", {}).items()
        )
        before = row.get("before_ms")
        print(
            f"lifecycle_recovery {row['scheme']} n={row['n']}: "
            f"run={row['run_ms']:.0f} ms ({phases}) "
            f"recovery={row['recovery_ratio']:.1%} "
            f"t-recover={'-' if ttr is None else ttr} "
            f"extra={row['extra_distance']:.0f} m"
            + ("" if before is None else f" before={before:.0f} ms")
        )
    for entry in ("obstacle_cpvf", "obstacle_floor", "churn_cpvf"):
        for row in results.get(entry, ()):
            phases = " ".join(
                f"{name}={ms:.0f} ms" for name, ms in row["phases_ms"].items()
            )
            counters = " ".join(
                f"{name}={value}" for name, value in row.get("counters", {}).items()
            )
            before = row.get("before_ms")
            print(
                f"{entry} {row['layout']} n={row['n']} "
                f"periods={row['periods']}: wall={row['wall_ms']:.0f} ms "
                f"({phases})"
                + (f" [{counters}]" if counters else "")
                + ("" if before is None else f" before={before:.0f} ms")
            )
    for row in results.get("degraded_coverage", ()):
        print(
            f"degraded_coverage {row['scheme']} n={row['n']} "
            f"loss={row['loss']:.0%}: run={row['run_ms']:.0f} ms "
            f"retained={row['coverage_ratio']:.1%} "
            f"overhead={row['message_overhead']:.2f}x "
            f"(dropped={row['net_dropped']} retries={row['net_retries']} "
            f"timeouts={row['net_timeouts']})"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate (parts of) BENCH_perf.json"
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="ENTRY",
        default=None,
        help="regenerate only these entries and merge into the existing file",
    )
    parser.add_argument(
        "--n",
        nargs="+",
        type=int,
        metavar="N",
        default=None,
        help="population sizes for the per-population entries",
    )
    parser.add_argument(
        "--seed", type=int, default=3, help="benchmark seed (default 3)"
    )
    parser.add_argument(
        "--list", action="store_true", help="list entry names and exit"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in ENTRIES:
            print(name)
        return 0

    results = run_perf_suite(ENTRIES, ns=args.n, seed=args.seed, only=args.only)
    if OUT_PATH.exists():
        committed = json.loads(OUT_PATH.read_text())
        for key, value in results.items():
            results[key] = _carry_seed(committed.get(key), value)
        if args.only:
            for key, value in results.items():
                committed[key] = _merge_entry(committed.get(key), value)
            results = committed
    results["python"] = platform.python_version()
    results["machine"] = platform.machine()
    # Host metadata: timings are only comparable across PRs measured on
    # the same class of machine, so pin what the numbers were taken on.
    results["host"] = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    _print_results(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
