"""Run every experiment and print the paper's tables and figures.

This module is the command-line face of the reproduction.  Every
experiment is a declarative :class:`~repro.api.specs.SweepSpec` executed
by the one sweep executor, :class:`~repro.api.sweep.SweepRunner`::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner --scale bench --jobs 8
    python -m repro.experiments.runner --scale full --only fig3 fig8 \\
        --trace-every 1 --jobs 8 --out results/

``--jobs N`` shards the sweep's independent runs over ``N`` worker
processes; records are merged deterministically, so ``--jobs 8`` output is
identical to the serial run.  ``--trace-every K`` records a metrics trace
every ``K`` periods (Fig 3/8 render it as a coverage time series, and the
traces are kept in the records).  ``--out DIR`` persists one JSON artifact
per experiment (the full typed records plus the formatted report); load
them back with :meth:`repro.api.RunRecord.from_dict`::

    import json
    from repro.api import RunRecord

    payload = json.load(open("results/fig3.json"))
    records = [RunRecord.from_dict(r) for r in payload["records"]]

At full scale the whole suite took about 1,120 s at ``--jobs 2`` on a
2-CPU host, Fig 13 about three quarters of it; the default ``bench``
scale keeps the sweep's shape (relative ordering of schemes, crossover
points) in a fraction of that.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api import RunRecord, SweepRunner, SweepSpec
from ..obs import merge_summaries
from ..obs.report import format_summary, write_record_trace
from .common import (
    BENCH_SCALE,
    FULL_SCALE,
    SMOKE_SCALE,
    ExperimentScale,
    format_coverage_traces,
)
from .degradation import format_degradation, rows_degradation, sweep_degradation
from .fig3 import format_fig3, rows_fig3, sweep_fig3
from .fig8 import sweep_fig8
from .fig9 import format_fig9, rows_fig9, sweep_fig9
from .fig10 import format_fig10, rows_fig10, sweep_fig10
from .fig11 import format_fig11, rows_fig11, sweep_fig11
from .fig12 import format_fig12, rows_fig12, sweep_fig12
from .fig13 import format_fig13, summary_fig13, sweep_fig13
from .gallery import format_gallery, rows_gallery, sweep_gallery
from .lifecycle import format_lifecycle, rows_lifecycle, sweep_lifecycle
from .table1 import format_table1, rows_table1, sweep_table1

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment_records", "main"]


def _scenario_trace_label(record: RunRecord) -> str:
    """Trace label of a Fig 3/8 record: scheme and scenario letter."""
    return f"{record.scheme} ({record.tag('scenario')})"


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: its sweep, row builder and formatter."""

    name: str
    #: ``sweep(scale, seed=..., trace_every=...) -> SweepSpec``.
    sweep: Callable[..., SweepSpec]
    #: ``rows(records)``: the figure's rows (Fig 13: its summary).
    rows: Callable[[Sequence[RunRecord]], object]
    #: ``format(rows) -> str``: the figure's text table.
    format: Callable[[object], str]
    #: Labels traced records in a coverage time series appended to the
    #: report; ``None`` keeps traces out of the report.
    trace_label: Optional[Callable[[RunRecord], str]] = None


#: Experiment name -> declarative sweep + presenter.
EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment("fig3", sweep_fig3, rows_fig3, format_fig3, _scenario_trace_label),
        Experiment(
            "fig8",
            sweep_fig8,
            rows_fig3,
            partial(format_fig3, title="Figure 8 (FLOOR)"),
            _scenario_trace_label,
        ),
        Experiment("fig9", sweep_fig9, rows_fig9, format_fig9),
        Experiment("fig10", sweep_fig10, rows_fig10, format_fig10),
        Experiment("fig11", sweep_fig11, rows_fig11, format_fig11),
        Experiment("fig12", sweep_fig12, rows_fig12, format_fig12),
        Experiment("fig13", sweep_fig13, summary_fig13, format_fig13),
        Experiment("table1", sweep_table1, rows_table1, format_table1),
        Experiment("gallery", sweep_gallery, rows_gallery, format_gallery),
        Experiment("lifecycle", sweep_lifecycle, rows_lifecycle, format_lifecycle),
        Experiment(
            "degradation", sweep_degradation, rows_degradation, format_degradation
        ),
    )
}

_SCALES = {"full": FULL_SCALE, "bench": BENCH_SCALE, "smoke": SMOKE_SCALE}


def run_experiment_records(
    name: str,
    scale: ExperimentScale,
    jobs: int = 1,
    seed: int = 1,
    trace_every: Optional[int] = None,
    store=None,
    resume: bool = False,
    profile: bool = False,
) -> Tuple[List[RunRecord], str]:
    """Run one experiment; return its records and formatted report.

    ``profile`` turns on telemetry for every run: each record carries a
    :class:`~repro.obs.TelemetrySummary` (phase times + counters), which
    ``main`` aggregates into a per-experiment breakdown.

    ``store`` (a path or :class:`~repro.service.store.RunStore`) binds the
    sweep to a content-addressed run store: completed cells are written
    through as they finish, and with ``resume=True`` cells already in the
    store — from a killed run of this experiment, or from *any* other
    sweep sharing cells — are served without recompute.  See
    ``docs/service.md``.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    experiment = EXPERIMENTS[name]
    sweep = experiment.sweep(scale, seed=seed, trace_every=trace_every)
    if profile:
        sweep = SweepSpec(
            name=sweep.name,
            runs=tuple(run.replace(profile=True) for run in sweep.runs),
        )
    runner = SweepRunner(jobs=jobs, store=store, reuse=resume)
    records = runner.run(sweep)
    if store is not None and runner.last_cache is not None:
        cache = runner.last_cache
        print(
            f"[{name}: {cache['hits']}/{cache['cells']} cells served from "
            f"the store, {cache['computed']} computed]",
            file=sys.stderr,
        )
    report = experiment.format(experiment.rows(records))
    if experiment.trace_label is not None:
        traces = format_coverage_traces(records, label=experiment.trace_label)
        if traces:
            report += "\n" + traces
    return records, report


def _write_artifact(
    out_dir: Path,
    name: str,
    scale_name: str,
    jobs: int,
    seed: int,
    trace_every: Optional[int],
    records: Sequence[RunRecord],
    report: str,
) -> Path:
    """Persist one experiment's records + report as a JSON artifact."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    payload = {
        "experiment": name,
        "scale": scale_name,
        "jobs": jobs,
        "seed": seed,
        "trace_every": trace_every,
        "records": [record.to_dict() for record in records],
        "report": report,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def main(argv: Sequence[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="bench",
        help="experiment scale: smoke (seconds), bench (minutes), full (paper)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="subset of experiments to run (default: all)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to shard each sweep over (default: 1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="base random seed (per-repetition seeds are spawned from it)",
    )
    parser.add_argument(
        "--trace-every",
        type=int,
        default=None,
        metavar="K",
        help="record a metrics trace every K periods (1 = per-period series)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write one JSON artifact per experiment (records + report)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "content-addressed run store: completed cells are persisted "
            "as they finish (see docs/service.md)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "serve cells already present in --store without recompute "
            "(resume a killed sweep / reuse overlapping sweeps)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "collect telemetry for every run and print the aggregated "
            "per-phase time breakdown after each experiment (with --out, "
            "also export a <name>_trace.jsonl readable by "
            "`python -m repro.obs report`)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available experiments and exit",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.trace_every is not None and args.trace_every < 1:
        parser.error("--trace-every must be >= 1")
    if args.resume and args.store is None:
        parser.error("--resume requires --store DIR")

    if args.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    scale = _SCALES[args.scale]
    names: List[str] = args.only if args.only else sorted(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiments {unknown}; choose from {sorted(EXPERIMENTS)}"
        )
    for name in names:
        records, report = run_experiment_records(
            name,
            scale,
            jobs=args.jobs,
            seed=args.seed,
            trace_every=args.trace_every,
            store=args.store,
            resume=args.resume,
            profile=args.profile,
        )
        print(report)
        if args.profile:
            print()
            print(
                format_summary(
                    merge_summaries(r.telemetry for r in records),
                    title=f"{name}: profile",
                )
            )
        if args.out is not None:
            path = _write_artifact(
                args.out,
                name,
                args.scale,
                args.jobs,
                args.seed,
                args.trace_every,
                records,
                report,
            )
            print(f"[wrote {path}]")
            if args.profile:
                trace_path = args.out / f"{name}_trace.jsonl"
                with open(trace_path, "w", encoding="utf-8") as handle:
                    write_record_trace(handle, records)
                print(f"[wrote {trace_path}]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
