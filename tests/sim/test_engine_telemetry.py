"""Engine telemetry threading and the trace_every=None contract."""

from repro.core import CPVFScheme, FloorScheme
from repro.field import obstacle_free_field
from repro.obs import Telemetry
from repro.spatial.cache import NeighborSnapshot
from repro.sim import SimulationConfig, SimulationEngine, World


def _world(duration=20.0, seed=1):
    config = SimulationConfig(
        sensor_count=12, duration=duration, coverage_resolution=25.0, seed=seed
    )
    return World.create(config, obstacle_free_field(300.0))


def _scheme():
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

    def test_trace_points_are_taken_every_trace_every_periods(self):
        result = SimulationEngine(_world(), _scheme(), trace_every=5).run()
        assert [point.time for point in result.trace] == [5.0, 10.0, 15.0, 20.0]
        assert result.trace[-1].coverage == result.final_coverage
        assert result.trace[-1].total_messages == result.total_messages

    def test_profile_counts_every_table_build_of_the_run(self, monkeypatch):
        # The end-of-run connectivity check builds a table too; the
        # summary must be taken after it.
        builds = []
        raw_table = NeighborSnapshot._raw_table

        def counting(snapshot):
            if snapshot._table is None:
                builds.append(1)
            return raw_table(snapshot)

        monkeypatch.setattr(NeighborSnapshot, "_raw_table", counting)
        for scheme in (_scheme(), FloorScheme()):
            builds.clear()
            result = SimulationEngine(
                _world(), scheme, trace_every=None, telemetry=Telemetry()
            ).run()
            assert builds
            assert result.telemetry.counters["neighbors.table_builds"] == len(
                builds
            ), scheme.name

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
