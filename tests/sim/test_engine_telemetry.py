"""Engine telemetry threading and the trace_every=None contract."""

from repro.field import obstacle_free_field
from repro.obs import MemorySink, Telemetry, TelemetrySink
from repro.sim import SimulationConfig, SimulationEngine, World


def _world(duration=20.0, seed=1):
    config = SimulationConfig(
        sensor_count=12, duration=duration, coverage_resolution=25.0, seed=seed
    )
    return World.create(config, obstacle_free_field(300.0))


def _scheme():
    from repro.core import CPVFScheme

    return CPVFScheme()


class TestEngineTelemetry:
    def test_phases_and_counters_recorded(self):
        tel = Telemetry()
        result = SimulationEngine(
            _world(), _scheme(), trace_every=5, telemetry=tel
        ).run()
        summary = result.telemetry
        assert summary is not None
        for phase in ("engine.initialize", "engine.scheme_step", "engine.trace"):
            assert phase in summary.phases, phase
        assert summary.counters["engine.periods"] == result.periods_executed
        assert summary.phases["engine.scheme_step"].calls == result.periods_executed

    def test_period_events_mirror_trace_records(self):
        sink = MemorySink()
        result = SimulationEngine(
            _world(), _scheme(), trace_every=5, telemetry=Telemetry(sink=sink)
        ).run()
        events = sink.of_type("period")
        assert len(events) == len(result.trace)
        for event, record in zip(events, result.trace):
            assert event["coverage"] == record.coverage
            assert event["total_messages"] == record.total_messages

    def test_trace_holds_the_objects_the_sink_receives(self):
        class PeriodCollector(TelemetrySink):
            def __init__(self):
                self.periods = []

            def on_period(self, trace):
                self.periods.append(trace)

        sink = PeriodCollector()
        result = SimulationEngine(
            _world(), _scheme(), trace_every=5, telemetry=Telemetry(sink=sink)
        ).run()
        assert len(result.trace) == len(sink.periods) == 4
        assert all(a is b for a, b in zip(result.trace, sink.periods))

    def test_counters_are_deterministic(self):
        def counters():
            tel = Telemetry()
            SimulationEngine(
                _world(seed=3), _scheme(), trace_every=10, telemetry=tel
            ).run()
            return tel.summary().counters

        assert counters() == counters()

    def test_untraced_result_identical(self):
        # Telemetry must observe, never perturb: coverage/messages match
        # a run without any telemetry installed.
        plain = SimulationEngine(_world(), _scheme(), trace_every=5).run()
        traced = SimulationEngine(
            _world(), _scheme(), trace_every=5, telemetry=Telemetry()
        ).run()
        assert traced.final_coverage == plain.final_coverage
        assert traced.total_messages == plain.total_messages
        assert plain.telemetry is None


class TestTraceEveryNone:
    def test_none_disables_tracing(self):
        result = SimulationEngine(_world(), _scheme(), trace_every=None).run()
        assert result.trace == []
        assert result.telemetry is None

    def test_none_matches_traced_coverage(self):
        untraced = SimulationEngine(_world(), _scheme(), trace_every=None).run()
        traced = SimulationEngine(_world(), _scheme(), trace_every=1).run()
        assert untraced.final_coverage == traced.final_coverage
