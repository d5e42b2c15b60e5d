"""Telemetry core: spans, counters, gauges, and the null object."""

import pytest

from repro.obs import NULL_TELEMETRY, NullTelemetry, Telemetry, TracePoint


class TestSpans:
    def test_span_aggregates_seconds_and_calls(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.span("phase.a"):
                pass
        summary = tel.summary()
        assert summary.phases["phase.a"].calls == 3
        assert summary.phases["phase.a"].seconds >= 0.0

    def test_nested_distinct_spans(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        summary = tel.summary()
        assert summary.phases["outer"].calls == 1
        assert summary.phases["inner"].calls == 1
        # The inner span's time is contained in the outer one's.
        assert summary.phases["inner"].seconds <= summary.phases["outer"].seconds

    def test_span_records_on_exception(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with tel.span("boom"):
                raise RuntimeError("x")
        assert tel.summary().phases["boom"].calls == 1


class TestCountersAndGauges:
    def test_count_accumulates_integers(self):
        tel = Telemetry()
        tel.count("events")
        tel.count("events", 4)
        assert tel.counter("events") == 5
        assert tel.counter("missing") == 0

    def test_merge_counters(self):
        tel = Telemetry()
        tel.count("a", 1)
        tel.merge_counters({"a": 2, "b": 3})
        summary = tel.summary()
        assert summary.counters == {"a": 3, "b": 3}

    def test_gauge_last_wins(self):
        tel = Telemetry()
        tel.gauge("inflight", 4.0)
        tel.gauge("inflight", 2.0)
        assert tel.summary().gauges == {"inflight": 2.0}


class TestTracePoint:
    def test_trace_point_roundtrip(self):
        point = TracePoint(
            time=70.0,
            coverage=0.25,
            average_moving_distance=2.5,
            total_messages=99,
            connected_sensors=40,
        )
        assert TracePoint.from_dict(point.to_dict()) == point

    def test_from_dict_ignores_trace_line_keys(self):
        line = {"type": "period", "run": "0/CPVF/abc", "time": 5.0,
                "coverage": 0.5, "average_moving_distance": 1.0,
                "total_messages": 3, "connected_sensors": 2}
        assert TracePoint.from_dict(line) == TracePoint(5.0, 0.5, 1.0, 3, 2)

    def test_api_and_experiments_reexport_the_one_record(self):
        import repro.api
        import repro.experiments

        assert repro.api.TracePoint is TracePoint
        assert repro.experiments.TracePoint is TracePoint


class TestNullTelemetry:
    def test_disabled_and_shared(self):
        assert NULL_TELEMETRY.enabled is False
        assert isinstance(NULL_TELEMETRY, NullTelemetry)
        # All operations are no-ops and leave the summary empty.
        with NULL_TELEMETRY.span("x"):
            pass
        NULL_TELEMETRY.count("x", 5)
        NULL_TELEMETRY.gauge("g", 1.0)
        summary = NULL_TELEMETRY.summary()
        assert not summary.phases and not summary.counters and not summary.gauges

    def test_span_object_is_shared(self):
        # The hot-path contract: no allocation per span when disabled.
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")
