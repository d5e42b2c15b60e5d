"""Run-attached profiles: fingerprint invariance, determinism, round-trip."""

import json

from repro.api import (
    RunRecord,
    RunSpec,
    ScenarioSpec,
    SweepRunner,
    TelemetrySummary,
    execute_run,
)
from repro.experiments.common import SMOKE_SCALE, make_scenario


def _scenario(seed=5, duration=20.0):
    return ScenarioSpec(
        field_size=300.0,
        sensor_count=24,
        communication_range=60.0,
        sensing_range=40.0,
        duration=duration,
        coverage_resolution=15.0,
        seed=seed,
    )


def _strip_telemetry(record):
    payload = record.to_dict()
    payload.pop("telemetry", None)
    payload["spec"].pop("profile", None)
    return payload


class TestFingerprintInvariance:
    def test_profile_does_not_change_fingerprint(self):
        spec = RunSpec(scenario=_scenario(), scheme="CPVF")
        assert spec.fingerprint() == spec.replace(profile=True).fingerprint()

    def test_profile_survives_spec_roundtrip(self):
        spec = RunSpec(scenario=_scenario(), scheme="CPVF", profile=True)
        assert RunSpec.from_dict(spec.to_dict()).profile is True


class TestProfiledExecution:
    def test_profiled_run_attaches_summary(self):
        record = execute_run(
            RunSpec(scenario=_scenario(), scheme="CPVF", profile=True)
        )
        summary = record.telemetry
        assert summary is not None
        assert "engine.scheme_step" in summary.phases
        assert summary.counters["engine.periods"] == record.periods_executed
        assert summary.counters["messages.total"] == record.total_messages

    def test_unprofiled_run_has_no_telemetry(self):
        record = execute_run(RunSpec(scenario=_scenario(), scheme="CPVF"))
        assert record.telemetry is None

    def test_profiling_leaves_results_identical(self):
        spec = RunSpec(scenario=_scenario(), scheme="CPVF", trace_every=5)
        plain = execute_run(spec)
        profiled = execute_run(spec.replace(profile=True))
        assert _strip_telemetry(plain) == _strip_telemetry(profiled)

    def test_vd_baseline_gets_engine_phases(self):
        record = execute_run(
            RunSpec(scenario=_scenario(duration=10.0), scheme="VOR", profile=True)
        )
        summary = record.telemetry
        assert summary is not None
        assert "engine.initialize" in summary.phases
        assert "engine.scheme_step" in summary.phases
        assert "run.execute" not in summary.phases
        assert summary.counters["engine.periods"] == record.periods_executed

    def test_analytic_scheme_gets_execute_phase(self):
        record = execute_run(
            RunSpec(scenario=_scenario(duration=10.0), scheme="OPT", profile=True)
        )
        assert record.telemetry is not None
        assert "run.execute" in record.telemetry.phases


class TestMotionLedger:
    #: FLOOR on the pinned two-obstacle smoke setting, profiled.
    SPEC = RunSpec(
        scenario=make_scenario(SMOKE_SCALE, seed=1, layout="two-obstacle"),
        scheme="FLOOR",
        profile=True,
    )

    def test_floor_reports_its_uncharged_corrections(self):
        """FLOOR's obstacle-exit corrections on the golden two-obstacle
        smoke setting reach the profile, the same in every run."""
        ledgers = [
            {
                name: value
                for name, value in execute_run(self.SPEC).telemetry.counters.items()
                if name.startswith("motion.")
            }
            for _ in range(2)
        ]
        assert ledgers[0]["motion.corrections.arrival"] > 0
        assert ledgers[0]["motion.uncharged_mm"] > 0
        assert ledgers[0] == ledgers[1]

    def test_record_carries_the_uncharged_distance(self):
        """The record's ``uncharged_m`` extra is the profile's
        ``motion.uncharged_mm``, to the millimetre."""
        record = execute_run(self.SPEC)
        uncharged = record.extra("uncharged_m", 0.0)
        assert uncharged > 0
        assert round(1000.0 * uncharged) == (
            record.telemetry.counters["motion.uncharged_mm"]
        )


class TestCounterDeterminism:
    def test_counter_totals_identical_across_job_counts(self):
        scenario = _scenario(duration=15.0)
        specs = [
            RunSpec(
                scenario=scenario.replace(seed=seed),
                scheme="CPVF",
                profile=True,
            )
            for seed in (1, 2, 3, 4)
        ]
        reference = [execute_run(spec) for spec in specs]

        def merged_counters(records):
            merged = TelemetrySummary()
            for record in records:
                merged = merged.merge(record.telemetry)
            return merged.counters

        for jobs in (1, 2):
            records = SweepRunner(jobs=jobs).run(specs)
            assert merged_counters(records) == merged_counters(reference)
            # And the records agree wholesale on everything non-wall-clock.
            assert [_strip_counter_free(r) for r in records] == [
                _strip_counter_free(r) for r in reference
            ]


def _strip_counter_free(record):
    payload = record.to_dict()
    telemetry = payload.pop("telemetry")
    return payload, telemetry["counters"], telemetry["gauges"]


class TestRecordRoundTrip:
    def test_telemetry_survives_json(self):
        record = execute_run(
            RunSpec(scenario=_scenario(), scheme="CPVF", profile=True)
        )
        restored = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert restored == record
        assert restored.telemetry == record.telemetry

    def test_legacy_payload_without_telemetry_key(self):
        record = execute_run(RunSpec(scenario=_scenario(), scheme="CPVF"))
        payload = record.to_dict()
        payload.pop("telemetry")
        payload["spec"].pop("profile")
        restored = RunRecord.from_dict(payload)
        assert restored.telemetry is None
        assert restored.spec.profile is False
