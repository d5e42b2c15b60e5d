"""Render telemetry traces and summaries for humans.

``python -m repro.obs report trace.jsonl`` reads a JSONL trace (exported
from stored records by :func:`write_record_trace`, or any file of the
same line shapes) and prints a phase-time table over every run's
summary plus one message-burst timeline per run, built from the
message deltas between that run's consecutive trace points.
:func:`format_summary` is the same table for an in-memory
:class:`~repro.obs.summary.TelemetrySummary` — ``runner --profile``
uses it directly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, TextIO, Tuple

from .summary import TelemetrySummary, TracePoint, merge_summaries

__all__ = [
    "format_summary",
    "format_timeline",
    "load_trace",
    "render_report",
    "write_record_trace",
]


def format_summary(summary: TelemetrySummary, title: Optional[str] = None) -> str:
    """Phase-time table + counter/gauge listing, widest phases first."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    total = summary.total_seconds()
    if summary.phases:
        lines.append(f"{'phase':<28} {'total':>10} {'calls':>8} {'per call':>10} {'share':>7}")
        for name in sorted(
            summary.phases, key=lambda n: summary.phases[n].seconds, reverse=True
        ):
            stat = summary.phases[name]
            per_call = stat.seconds / stat.calls if stat.calls else 0.0
            share = stat.seconds / total if total > 0 else 0.0
            lines.append(
                f"{name:<28} {stat.seconds * 1e3:>8.2f}ms {stat.calls:>8d} "
                f"{per_call * 1e3:>8.3f}ms {share:>6.1%}"
            )
    else:
        lines.append("(no phases recorded)")
    if summary.counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(summary.counters):
            lines.append(f"  {name:<40} {summary.counters[name]:>12d}")
    if summary.gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(summary.gauges):
            lines.append(f"  {name:<40} {summary.gauges[name]:>12.3f}")
    return "\n".join(lines)


def format_timeline(runs: Mapping[str, Sequence[TracePoint]], width: int = 50) -> str:
    """ASCII message-burst timeline, one block per run.

    Each row is one trace point; ``msgs+`` is the number of messages the
    run sent since its previous point (its first point counts from the
    run's start), and the bar is that delta normalised to the busiest
    interval of any run, so protocol bursts (e.g. post-failure repair
    floods) stand out against steady-state chatter.
    """
    deltas: Dict[str, List[int]] = {}
    for run, points in runs.items():
        totals = [point.total_messages for point in points]
        deltas[run] = [now - before for before, now in zip([0] + totals, totals)]
    if not any(deltas.values()):
        return "(no trace points)"
    peak = max(max(run_deltas) for run_deltas in deltas.values() if run_deltas) or 1
    lines: List[str] = []
    for run, points in runs.items():
        if lines:
            lines.append("")
        lines.append(f"run {run}")
        lines.append(f"{'time':>8} {'coverage':>9} {'msgs+':>8}  burst")
        for point, delta in zip(points, deltas[run]):
            bar = "#" * max(1 if delta else 0, round(delta / peak * width))
            lines.append(
                f"{point.time:>8.1f} {point.coverage:>9.4f} {delta:>8d}  {bar}"
            )
    return "\n".join(lines)


def load_trace(
    lines: Iterable[str],
) -> Tuple[List[TelemetrySummary], Dict[str, List[TracePoint]]]:
    """Parse JSONL trace lines into (summaries, trace points per run).

    Points are grouped by their line's ``run`` label, runs and points in
    file order.  Unknown event types are skipped, so traces written by
    newer code still load; malformed lines raise, because a truncated
    trace should be noticed, not silently half-read.
    """
    summaries: List[TelemetrySummary] = []
    runs: Dict[str, List[TracePoint]] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        kind = payload.get("type")
        if kind == "summary":
            summaries.append(TelemetrySummary.from_dict(payload))
        elif kind == "period":
            runs.setdefault(payload.get("run", ""), []).append(
                TracePoint.from_dict(payload)
            )
    return summaries, runs


def render_report(lines: Iterable[str], width: int = 50) -> str:
    """Full text report (merged phase table + per-run timelines)."""
    summaries, runs = load_trace(lines)
    sections = [format_summary(merge_summaries(summaries), title="phase breakdown")]
    sections.append("")
    sections.append("message-burst timeline")
    sections.append("----------------------")
    sections.append(format_timeline(runs, width=width))
    return "\n".join(sections)


def write_record_trace(out: TextIO, records: Iterable[Any]) -> int:
    """Export stored run records' trace points and telemetry as JSONL.

    Sweeps execute in worker processes, so profiled sweeps carry their
    telemetry *on the records* and this function writes the trace after
    the fact: one ``period`` line per :class:`TracePoint` and one
    ``summary`` line per record carrying a :class:`TelemetrySummary`.
    Every line names its record with a ``run`` label,
    ``<index>/<scheme>/<fingerprint prefix>``: the record's position
    keeps the label unique within the file even when two records share
    a spec.  Returns the number of lines written.
    """
    written = 0
    for index, record in enumerate(records):
        run = f"{index}/{record.scheme}/{record.spec.fingerprint()[:12]}"
        payloads = [{"type": "period", **point.to_dict()} for point in record.trace]
        if record.telemetry is not None:
            payloads.append({"type": "summary", **record.telemetry.to_dict()})
        for payload in payloads:
            payload["run"] = run
            out.write(json.dumps(payload, separators=(",", ":")) + "\n")
        written += len(payloads)
    return written
