"""Store-bound :class:`SweepRunner`: write-through, resume, sharded writes."""

import pytest

from repro.api import RunSpec, ScenarioSpec, SweepRunner, SweepSpec, execute_run
from repro.service import RunStore


def tiny_sweep(values=(40.0, 50.0, 60.0)):
    scenario = ScenarioSpec(
        field_size=250.0,
        sensor_count=10,
        duration=12.0,
        coverage_resolution=25.0,
        seed=3,
    )
    return SweepSpec.grid(
        "store-sweep",
        scenario,
        schemes=("CPVF",),
        axes={"communication_range": list(values)},
    )


@pytest.fixture(scope="module")
def reference_records():
    # The independent reference: a plain loop, no sweep executor.
    return [execute_run(spec) for spec in tiny_sweep().runs]


class TestWriteThrough:
    def test_cold_store_run_matches_plain_run(self, tmp_path, reference_records):
        runner = SweepRunner(jobs=1, store=tmp_path / "store")
        records = runner.run(tiny_sweep())
        assert records == reference_records
        assert runner.last_cache == {"cells": 3, "hits": 0, "computed": 3}
        assert len(RunStore(tmp_path / "store")) == 3

    def test_store_accepts_path_string_or_instance(self, tmp_path, reference_records):
        store = RunStore(tmp_path / "store")
        assert SweepRunner(jobs=1, store=str(store.root)).run(
            tiny_sweep()
        ) == reference_records
        assert SweepRunner(jobs=1, store=store, reuse=True).run(
            tiny_sweep()
        ) == reference_records

    def test_plain_runner_reports_everything_computed(self, reference_records):
        runner = SweepRunner(jobs=1)
        runner.run(tiny_sweep())
        assert runner.last_cache == {"cells": 3, "hits": 0, "computed": 3}


class TestResume:
    def test_warm_rerun_recomputes_nothing(self, tmp_path, reference_records):
        store = tmp_path / "store"
        SweepRunner(jobs=1, store=store).run(tiny_sweep())
        runner = SweepRunner(jobs=1, store=store, reuse=True)
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.last_cache == {"cells": 3, "hits": 3, "computed": 0}

    def test_partial_store_recomputes_only_missing(self, tmp_path, reference_records):
        store = RunStore(tmp_path / "store")
        SweepRunner(jobs=1, store=store).run(tiny_sweep())
        # Simulate a killed run: drop one cell.
        dropped = reference_records[1].spec.fingerprint()
        store.path_for(dropped).unlink()

        runner = SweepRunner(jobs=1, store=store, reuse=True)
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.last_cache == {"cells": 3, "hits": 2, "computed": 1}
        assert dropped in store  # the recomputed cell was written back

    def test_overlapping_sweep_recomputes_only_difference(
        self, tmp_path, reference_records
    ):
        store = tmp_path / "store"
        SweepRunner(jobs=1, store=store).run(tiny_sweep(values=(40.0, 50.0)))
        runner = SweepRunner(jobs=1, store=store, reuse=True)
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.last_cache == {"cells": 3, "hits": 2, "computed": 1}

    def test_refresh_mode_recomputes_but_still_writes(
        self, tmp_path, reference_records
    ):
        store = tmp_path / "store"
        SweepRunner(jobs=1, store=store).run(tiny_sweep())
        runner = SweepRunner(jobs=1, store=store, reuse=False)
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.last_cache == {"cells": 3, "hits": 0, "computed": 3}
        assert len(RunStore(store)) == 3


class TestShardedWrites:
    def test_sharded_cells_written_through_by_the_parent(
        self, tmp_path, reference_records
    ):
        runner = SweepRunner(jobs=2, store=tmp_path / "store")
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.last_cache == {"cells": 3, "hits": 0, "computed": 3}
        store = RunStore(tmp_path / "store")
        assert len(store) == 3
        for record in reference_records:
            assert store.get(record.spec) == record

    def test_sharded_resume_matches_serial(self, tmp_path, reference_records):
        SweepRunner(jobs=1, store=tmp_path / "store").run(
            tiny_sweep(values=(40.0, 50.0))
        )
        runner = SweepRunner(jobs=2, store=tmp_path / "store", reuse=True)
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.last_cache == {"cells": 3, "hits": 2, "computed": 1}


class TestFailingCell:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_propagates_and_completed_cells_persist(self, tmp_path, jobs):
        good = tiny_sweep().runs
        bad = RunSpec(
            scenario=good[0].scenario,
            scheme="VOR",
            scheme_params={"rounds": 1, "bogus": 1},
        )
        with pytest.raises(TypeError) as expected:
            execute_run(bad)
        store = RunStore(tmp_path / "store")
        with pytest.raises(TypeError) as raised:
            SweepRunner(jobs=jobs, store=store).run([good[0], bad, good[1]])
        assert str(raised.value) == str(expected.value)
        assert "bogus" in str(raised.value)
        assert len(store) == 2
        for spec in good[:2]:
            assert store.get(spec) == execute_run(spec)
