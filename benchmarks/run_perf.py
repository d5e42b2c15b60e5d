#!/usr/bin/env python
"""Regenerate the repo-root ``BENCH_perf.json`` perf trajectory.

Usage (from the repo root)::

    python benchmarks/run_perf.py                      # full suite
    python benchmarks/run_perf.py --only cpvf_period   # one entry only
    python benchmarks/run_perf.py --only cpvf_period --n 2000 10000
    python benchmarks/run_perf.py --only cpvf_period --n 100000
    python benchmarks/run_perf.py --list               # entry names

Runs the spatial-subsystem benchmarks (neighbor-table build, CPVF
periods, coverage re-measurement) plus the sweep-throughput,
scenario-generation and batched-CPVF entries, asserting fast-path/brute
parity (or batched/sequential convergence) while timing, and writes the
results next to this repository's README so future PRs can track the
perf trajectory.

The seed algorithms are not re-measured: every re-measured row without
a ``seed_ms`` of its own inherits the committed row's frozen ``seed_ms``
unchanged, and its ``speedup`` is recomputed against the fresh
``batched_ms`` (or ``fast_ms``).  The seed re-implementations live in
``tests/oracles``.

``--only ENTRY [ENTRY ...]`` regenerates a subset of entries and merges
them into the existing ``BENCH_perf.json`` — the untouched entries are
preserved verbatim, so one noisy row can be re-measured without paying
for the whole suite.  ``--n N [N ...]`` overrides the population sizes
of the per-population entries (``neighbor_table``, ``cpvf_period``,
``coverage``); without it, ``cpvf_period`` runs the classic sizes
(100/500/1000, vectorized) plus the scale rows (2000/5000/10000,
vectorized vs batched).  Sizes beyond 10000 (e.g. ``--n 100000``) grow
the field with sqrt(n) so density matches the n = 10^4 row.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.perfbench import PERF_ENTRIES, run_perf_suite  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_perf.json"


def _row_key(row):
    return (row["n"], row.get("layout", ""))


def _is_row_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(r, dict) and "n" in r for r in value
    )


def _carry_seed(old, new):
    """Carry the committed, frozen ``seed_ms`` into re-measured rows.

    A fresh row without a ``seed_ms`` of its own takes the committed
    row's value unchanged (``None`` included) and its ``speedup`` is
    recomputed as seed over the fresh ``batched_ms`` (or ``fast_ms``);
    the row keeps the committed column order.  Rows with no committed
    counterpart are left without a seed column.
    """
    if not (_is_row_list(old) and _is_row_list(new)):
        return new
    committed = {_row_key(r): r for r in old if "seed_ms" in r}
    rows = []
    for row in new:
        frozen = committed.get(_row_key(row))
        if frozen is None or "seed_ms" in row:
            rows.append(row)
            continue
        seed_ms = frozen["seed_ms"]
        base_ms = row.get("batched_ms", row.get("fast_ms"))
        merged = dict(row, seed_ms=seed_ms)
        merged["speedup"] = (
            None if seed_ms is None or not base_ms else seed_ms / base_ms
        )
        order = [k for k in frozen if k in merged]
        order += [k for k in merged if k not in order]
        rows.append({k: merged[k] for k in order})
    return rows


def _merge_entry(old, new):
    """Merge regenerated rows into a committed entry, row by row.

    Per-population entries are lists of row dicts keyed by
    ``(n, layout)``; a partial regeneration (``--only ... --n ...``)
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
            extra = ""
            if "batched_ms" in row:
                extra = (
                    f" batched={row['batched_ms']:.2f} ms"
                    f" ({row['speedup_vs_vectorized']:.1f}x vs vectorized)"
                )
            if row.get("phases_ms"):
                top = max(row["phases_ms"], key=row["phases_ms"].get)
                extra += f" [top phase {top}={row['phases_ms'][top]:.1f} ms]"
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
                f"{speedup_part}{extra}"
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
            f"sequential={row['sequential_coverage']:.4f} "
            f"batched={row['batched_coverage']:.4f} "
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
        print(
            f"lifecycle_recovery {row['scheme']} n={row['n']}: "
            f"run={row['run_ms']:.0f} ms "
            f"recovery={row['recovery_ratio']:.1%} "
            f"t-recover={'-' if ttr is None else ttr} "
            f"extra={row['extra_distance']:.0f} m"
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
        for name in PERF_ENTRIES:
            print(name)
        return 0

    results = run_perf_suite(ns=args.n, seed=args.seed, only=args.only)
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
