"""SweepRunner: parallel-vs-serial record equality and adapter coverage."""

import pytest

from repro.api import RunSpec, SweepRunner, execute_run
from repro.experiments import SMOKE_SCALE, make_scenario
from repro.experiments.fig9 import sweep_fig9


class TestSweepRunner:
    def test_parallel_equals_serial_on_fig9_smoke_grid(self):
        # The acceptance property of the sweep executor: serial and --jobs N
        # sweeps both yield the records of a plain execute_run loop, on a
        # real figure grid.
        sweep = sweep_fig9(
            SMOKE_SCALE,
            sensor_counts=[120],
            range_pairs=[(60.0, 40.0)],
            seed=2,
        )
        reference = [execute_run(spec) for spec in sweep.runs]
        assert SweepRunner(jobs=1).run(sweep) == reference
        assert SweepRunner(jobs=2).run(sweep) == reference
        assert [r.scheme for r in reference] == ["CPVF", "FLOOR", "OPT"]

    def test_empty_sweep(self):
        assert SweepRunner(jobs=4).run([]) == []

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_runner_accepts_plain_spec_lists(self):
        scenario = make_scenario(SMOKE_SCALE, seed=5).replace(duration=10.0)
        specs = [RunSpec(scenario=scenario, scheme=s) for s in ("CPVF", "OPT")]
        records = SweepRunner(jobs=1).run(specs)
        assert [r.spec for r in records] == specs


class TestAdapters:
    def test_period_scheme_trace_and_positions(self):
        scenario = make_scenario(SMOKE_SCALE, seed=6).replace(duration=20.0)
        record = execute_run(
            RunSpec(
                scenario=scenario,
                scheme="CPVF",
                trace_every=5,
                keep_positions=True,
            )
        )
        assert record.trace, "trace_every should populate the trace"
        assert record.trace[-1].coverage == pytest.approx(record.coverage)
        assert len(record.final_positions) == scenario.sensor_count
        # Without trace_every / keep_positions the record stays light.
        bare = execute_run(RunSpec(scenario=scenario, scheme="CPVF"))
        assert bare.trace == () and bare.final_positions is None
        assert bare.coverage == pytest.approx(record.coverage)

    def test_vd_adapter_unknown_param_rejected(self):
        scenario = make_scenario(SMOKE_SCALE, seed=6)
        with pytest.raises(TypeError, match="bogus"):
            execute_run(
                RunSpec(
                    scenario=scenario,
                    scheme="VOR",
                    scheme_params={"rounds": 1, "bogus": 1},
                )
            )

    def test_analytic_adapters_reject_unknown_params(self):
        scenario = make_scenario(SMOKE_SCALE, seed=6)
        for scheme in ("OPT", "OPT-Hungarian"):
            with pytest.raises(TypeError, match="rounds"):
                execute_run(
                    RunSpec(
                        scenario=scenario,
                        scheme=scheme,
                        scheme_params={"rounds": 5},
                    )
                )

    def test_opt_hungarian_charges_matching_distance(self):
        scenario = make_scenario(SMOKE_SCALE, seed=6)
        record = execute_run(RunSpec(scenario=scenario, scheme="OPT-Hungarian"))
        assert record.average_moving_distance > 0.0
        assert record.total_moving_distance == pytest.approx(
            record.average_moving_distance * scenario.sensor_count
        )
