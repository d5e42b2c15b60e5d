"""Telemetry CLI: ``python -m repro.obs report trace.jsonl``.

Renders the merged phase-time table and one message-burst timeline per
run for a JSONL trace exported from stored records
(:func:`~repro.obs.report.write_record_trace`, which
``repro.experiments.runner --profile --out DIR`` calls).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .report import load_trace, render_report
from .summary import merge_summaries


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Telemetry trace tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render a phase-time table + message timeline"
    )
    report.add_argument("trace", help="JSONL trace file (use '-' for stdin)")
    report.add_argument(
        "--width", type=int, default=50, help="timeline bar width (default 50)"
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the merged TelemetrySummary as JSON instead of tables",
    )

    args = parser.parse_args(argv)
    if args.command == "report":
        if args.trace == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.trace, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        if args.json:
            summaries, _ = load_trace(lines)
            print(json.dumps(merge_summaries(summaries).to_dict(), indent=2))
        else:
            print(render_report(lines, width=args.width))
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
