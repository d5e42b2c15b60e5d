"""Telemetry core: spans, counters, gauges, and the null object."""

import pytest

from repro.obs import (
    NULL_TELEMETRY,
    MemorySink,
    NullTelemetry,
    PeriodTrace,
    Telemetry,
)


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


class TestPeriodEvents:
    def test_record_period_reaches_sink(self):
        sink = MemorySink()
        tel = Telemetry(sink=sink)
        trace = PeriodTrace(
            period=3,
            time=30.0,
            coverage=0.5,
            average_moving_distance=1.0,
            total_messages=12,
            connected_sensors=10,
        )
        tel.record_period(trace)
        events = sink.of_type("period")
        assert len(events) == 1
        assert events[0]["period"] == 3

    def test_period_trace_roundtrip(self):
        trace = PeriodTrace(
            period=7,
            time=70.0,
            coverage=0.25,
            average_moving_distance=2.5,
            total_messages=99,
            connected_sensors=40,
        )
        assert PeriodTrace.from_dict(trace.to_dict()) == trace


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


class TestClose:
    def test_close_emits_summary_to_sink(self):
        sink = MemorySink()
        tel = Telemetry(sink=sink)
        tel.count("done", 1)
        summary = tel.close()
        assert summary.counters == {"done": 1}
        assert len(sink.of_type("summary")) == 1
