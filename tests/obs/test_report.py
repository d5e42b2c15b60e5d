"""The record trace export and the report renderer."""

import io
import json
from types import SimpleNamespace

import pytest

from repro.obs import Telemetry, TracePoint, merge_summaries
from repro.obs.__main__ import main
from repro.obs.report import (
    format_summary,
    format_timeline,
    load_trace,
    render_report,
    write_record_trace,
)
from repro.obs.summary import TelemetrySummary


def _point(time, messages=0):
    return TracePoint(
        time=float(time),
        coverage=0.5,
        average_moving_distance=1.0,
        total_messages=messages,
        connected_sensors=8,
    )


def _summary_line(run, **counters):
    tel = Telemetry()
    for name, value in counters.items():
        tel.count(name, value)
    return json.dumps({"type": "summary", "run": run, **tel.summary().to_dict()})


def _period_line(run, time, messages=0):
    return json.dumps({"type": "period", "run": run, **_point(time, messages).to_dict()})


def _timeline_rows(report):
    """``{run label: [(time, msgs+), ...]}`` parsed from a rendered report."""
    runs, current = {}, None
    timeline = report.split("message-burst timeline", 1)[1]
    for line in timeline.splitlines():
        if line.startswith("run "):
            current = runs.setdefault(line[len("run "):], [])
        elif current is not None and line.strip() and not line.split()[0].isalpha():
            time, _coverage, delta = line.split()[:3]
            current.append((float(time), int(delta)))
    return runs


@pytest.fixture(scope="module")
def profiled_fig3():
    """A 3-record profiled smoke sweep traced every 20 periods."""
    from repro.experiments import SMOKE_SCALE
    from repro.experiments.runner import run_experiment_records

    records, _ = run_experiment_records(
        "fig3", SMOKE_SCALE, trace_every=20, profile=True
    )
    assert len(records) == 3
    return records


class TestWriteRecordTrace:
    def test_round_trips_points_and_summaries(self, profiled_fig3):
        buffer = io.StringIO()
        written = write_record_trace(buffer, profiled_fig3)
        summaries, runs = load_trace(buffer.getvalue().splitlines())
        assert written == len(buffer.getvalue().splitlines())
        assert summaries == [r.telemetry for r in profiled_fig3]
        assert [tuple(points) for points in runs.values()] == [
            r.trace for r in profiled_fig3
        ]

    def test_run_labels_are_unique_even_for_one_spec(self, profiled_fig3):
        record = profiled_fig3[0]
        buffer = io.StringIO()
        write_record_trace(buffer, [record, record])
        labels = [json.loads(line)["run"] for line in buffer.getvalue().splitlines()]
        assert len(set(labels)) == 2
        _, runs = load_trace(buffer.getvalue().splitlines())
        assert [tuple(points) for points in runs.values()] == [record.trace] * 2

    def test_unprofiled_record_writes_no_summary_line(self):
        spec = SimpleNamespace(fingerprint=lambda: "f" * 64)
        record = SimpleNamespace(
            scheme="CPVF", spec=spec, trace=(_point(20), _point(40)), telemetry=None
        )
        buffer = io.StringIO()
        assert write_record_trace(buffer, [record]) == 2
        kinds = [json.loads(line)["type"] for line in buffer.getvalue().splitlines()]
        assert kinds == ["period", "period"]
        assert load_trace(buffer.getvalue().splitlines()) == (
            [], {"0/CPVF/ffffffffffff": list(record.trace)}
        )


class TestPerRunTimeline:
    def test_deltas_never_span_two_runs(self, profiled_fig3):
        buffer = io.StringIO()
        write_record_trace(buffer, profiled_fig3)
        runs = _timeline_rows(render_report(buffer.getvalue().splitlines()))
        assert len(runs) == len(profiled_fig3)
        for record, rows in zip(profiled_fig3, runs.values()):
            totals = [point.total_messages for point in record.trace]
            assert rows[0][1] == totals[0]
            assert [delta for _, delta in rows] == [
                later - earlier for earlier, later in zip([0] + totals, totals)
            ]
            assert [time for time, _ in rows] == [p.time for p in record.trace]
            assert all(time % 20 == 0 for time, _ in rows)


class TestReport:
    def test_format_summary_lists_phases_and_counters(self):
        tel = Telemetry()
        with tel.span("engine.scheme_step"):
            pass
        tel.count("engine.periods", 5)
        text = format_summary(tel.summary(), title="t")
        assert "engine.scheme_step" in text
        assert "engine.periods" in text

    def test_format_timeline_burst_deltas(self):
        runs = {"a": [_point(1, messages=10), _point(2, messages=40)]}
        text = format_timeline(runs, width=10)
        # Second interval (30 new messages) gets the longest bar.
        lines = text.splitlines()
        assert lines[-1].count("#") > lines[-2].count("#")

    def test_format_timeline_empty(self):
        assert "no trace points" in format_timeline({})

    def test_summary_only_file_renders_the_phase_table(self):
        # The shape e2ebench's traced runs write: labelled summaries only.
        lines = []
        for run in ("w/CPVF/0", "w/FLOOR/1"):
            tel = Telemetry()
            with tel.span("engine.scheme_step"):
                pass
            tel.count("runs", 1)
            lines.append(json.dumps({"type": "summary", "run": run,
                                     **tel.summary().to_dict()}))
        report = render_report(lines)
        assert "engine.scheme_step" in report
        assert "runs" in report and "2" in report
        assert "no trace points" in report

    def test_merge_summaries_skips_missing(self):
        tel = Telemetry()
        tel.count("k", 2)
        summary = tel.summary()
        merged = merge_summaries([summary, None, summary])
        assert merged.counters == {"k": 4}
        assert merge_summaries([]) == TelemetrySummary()

    def test_load_trace_skips_unknown_types(self):
        lines = [json.dumps({"type": "future-thing", "x": 1})]
        assert load_trace(lines) == ([], {})

    def test_load_trace_rejects_malformed_lines(self):
        lines = [_period_line("a", 20), '{"type": "period", "run"']
        with pytest.raises(json.JSONDecodeError):
            load_trace(lines)

    def test_load_trace_groups_interleaved_runs_in_file_order(self):
        lines = [
            _period_line("b", 20, 3),
            _period_line("a", 20, 1),
            "",
            _period_line("b", 40, 5),
            _period_line("a", 40, 2),
        ]
        _, runs = load_trace(lines)
        assert list(runs) == ["b", "a"]
        assert [p.total_messages for p in runs["b"]] == [3, 5]
        assert [p.total_messages for p in runs["a"]] == [1, 2]

    def test_render_report_merges_multiple_summaries(self):
        lines = [_summary_line("r0", runs=1), _summary_line("r1", runs=1)]
        report = render_report(lines)
        (row,) = [line for line in report.splitlines() if line.split()[:1] == ["runs"]]
        assert row.split() == ["runs", "2"]


class TestCli:
    def test_report_json_is_the_merged_summary(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([
            _summary_line("r0", k=2),
            _period_line("r0", 20, 4),
            _summary_line("r1", k=3),
        ]) + "\n")
        assert main(["report", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "phases": {}, "counters": {"k": 5}, "gauges": {},
        }

    def test_report_reads_stdin(self, monkeypatch, capsys):
        lines = [_period_line("r0", 20, 4), _period_line("r0", 40, 10)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        assert main(["report", "-", "--width", "6"]) == 0
        out = capsys.readouterr().out
        assert "run r0" in out
        rows = _timeline_rows(out)["r0"]
        assert rows == [(20.0, 4), (40.0, 6)]
