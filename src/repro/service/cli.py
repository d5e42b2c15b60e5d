"""Command-line face of the sweep service.

::

    python -m repro.service submit SWEEP.json --store runs/ --jobs 4
    python -m repro.service submit --experiment fig9 --scale smoke --store runs/
    python -m repro.service status SWEEP.json --store runs/
    python -m repro.service stats --store runs/
    python -m repro.service gc --store runs/ [--dry-run]

``submit`` executes a sweep through :class:`~repro.api.sweep.SweepRunner`
— cells already in the store are served without recompute, a cell
repeated within the sweep is computed once ("coalesced"), and every cell
prints a progress line as it settles — and can persist the records
(``--out``).
``status`` previews a resume: which cells of a sweep are already cached.
``stats`` and ``gc`` report on and reclaim the store.  Sweeps are given
either as a JSON file (the ``SweepSpec.to_dict`` shape, also accepted
inside a ``{"sweep": ...}`` wrapper) or by registered experiment name.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from ..api.specs import SweepSpec
from ..api.sweep import SweepRunner
from .store import RunStore

__all__ = ["main"]


def _load_sweep(args: argparse.Namespace) -> SweepSpec:
    """The sweep named on the command line (JSON file or experiment)."""
    if (args.sweep is None) == (args.experiment is None):
        raise SystemExit("give exactly one of SWEEP.json or --experiment")
    if args.sweep is not None:
        payload = json.loads(Path(args.sweep).read_text())
        if "sweep" in payload and "runs" not in payload:
            payload = payload["sweep"]
        return SweepSpec.from_dict(payload)
    from ..experiments.common import BENCH_SCALE, FULL_SCALE, SMOKE_SCALE
    from ..experiments.runner import EXPERIMENTS

    scales = {"smoke": SMOKE_SCALE, "bench": BENCH_SCALE, "full": FULL_SCALE}
    if args.experiment not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[args.experiment].sweep(scales[args.scale], seed=args.seed)


def _store_for(args: argparse.Namespace, required: bool = True) -> Optional[RunStore]:
    if args.store is None:
        if required:
            raise SystemExit("--store DIR is required for this command")
        return None
    return RunStore(args.store)


def _cmd_submit(args: argparse.Namespace) -> int:
    sweep = _load_sweep(args)
    store = _store_for(args, required=False)
    runner = SweepRunner(jobs=args.jobs, store=store, reuse=not args.refresh)
    cells = len(sweep.runs)
    started = time.perf_counter()

    def progress(index, spec, record, source):
        if record is None:
            print(f"cell {index + 1}/{cells} {spec.scheme} FAILED", file=sys.stderr)
            return
        print(
            f"cell {index + 1}/{cells} {spec.scheme:<8s} {source:<8s} "
            f"{time.perf_counter() - started:6.2f}s {spec.fingerprint()[:12]}"
        )

    try:
        records = runner.run(sweep, on_cell=None if args.quiet else progress)
    finally:
        if store is not None:
            # Accumulate into the store's sidecar so a later ``stats
            # --json`` reports service totals in the shared schema, the
            # cells of a sweep that raised (computed and failed) included.
            store.merge_service_counters(runner.metrics.to_counters())
    metrics = runner.metrics
    print(
        f"{sweep.name}: {len(records)} records — "
        f"{metrics.store_hits} store hits, "
        f"{metrics.inflight_hits} coalesced, "
        f"{metrics.computed} computed "
        f"(hit rate {metrics.cache_hit_rate():.0%})"
    )
    if args.out is not None:
        payload = {
            "sweep": sweep.name,
            "records": [record.to_dict() for record in records],
            "metrics": metrics.to_dict(),
            "counters": metrics.to_counters(),
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[wrote {args.out}]")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    sweep = _load_sweep(args)
    store = _store_for(args)
    missing = [spec for spec in sweep.runs if spec not in store]
    cached = len(sweep.runs) - len(missing)
    print(
        f"{sweep.name}: {cached}/{len(sweep.runs)} cells cached in "
        f"{store.root} — resume would compute {len(missing)}"
    )
    if args.verbose:
        for index, spec in enumerate(sweep.runs):
            state = "cached" if spec in store else "missing"
            print(
                f"  cell {index:>4d} {spec.scheme:<8s} "
                f"{spec.fingerprint()[:16]} {state}"
            )
    return 0 if not missing else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    store = _store_for(args)
    stats = store.stats()
    counters = store.service_counters()
    if args.json:
        # "counters" carries the accumulated ServiceMetrics in the shared
        # dotted schema (service.*), aggregatable with engine telemetry.
        print(json.dumps({**stats.to_dict(), "counters": counters}, indent=2))
        return 0
    print(f"store {stats.root} (schema v{stats.schema_version})")
    print(f"  entries: {stats.entries} ({stats.bytes} bytes)")
    print(f"  stale:   {stats.stale_entries} files ({stats.stale_bytes} bytes)")
    for name in sorted(counters):
        print(f"  {name}: {counters[name]}")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    report = _store_for(args).gc(dry_run=args.dry_run)
    verb = "would remove" if report.dry_run else "removed"
    print(
        f"gc: {verb} {report.removed_files} files "
        f"({report.removed_bytes} bytes); "
        f"{report.kept_entries} records kept"
    )
    return 0


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "sweep", nargs="?", default=None, metavar="SWEEP.json",
        help="sweep spec JSON file (SweepSpec.to_dict shape)",
    )
    parser.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="build the sweep of a registered experiment instead",
    )
    parser.add_argument(
        "--scale", choices=("smoke", "bench", "full"), default="smoke",
        help="experiment scale for --experiment (default: smoke)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="base seed for --experiment sweeps (default: 1)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", help="execute a sweep (store hits, dedup, worker processes)"
    )
    _add_sweep_arguments(submit)
    submit.add_argument("--store", default=None, metavar="DIR")
    submit.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process; default: 1)",
    )
    submit.add_argument(
        "--refresh", action="store_true",
        help="recompute every cell (store stays write-through only)",
    )
    submit.add_argument(
        "--out", default=None, metavar="FILE",
        help="write records + metrics as JSON",
    )
    submit.add_argument("--quiet", action="store_true")
    submit.set_defaults(func=_cmd_submit)

    status = commands.add_parser(
        "status", help="preview a resume: which cells are already cached"
    )
    _add_sweep_arguments(status)
    status.add_argument("--store", default=None, metavar="DIR", required=True)
    status.add_argument("--verbose", action="store_true")
    status.set_defaults(func=_cmd_status)

    stats = commands.add_parser("stats", help="store entry/byte counts")
    stats.add_argument("--store", default=None, metavar="DIR", required=True)
    stats.add_argument("--json", action="store_true")
    stats.set_defaults(func=_cmd_stats)

    gc = commands.add_parser(
        "gc", help="reclaim stale schema versions and temp files"
    )
    gc.add_argument("--store", default=None, metavar="DIR", required=True)
    gc.add_argument("--dry-run", action="store_true")
    gc.set_defaults(func=_cmd_gc)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
