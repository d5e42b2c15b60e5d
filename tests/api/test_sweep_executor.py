"""The sweep executor: determinism, store reuse, in-sweep dedup, failures."""

import pytest

from repro.api import RunSpec, ScenarioSpec, SweepRunner, SweepSpec, execute_run
from repro.service import RunStore


def tiny_scenario(**overrides):
    defaults = dict(
        field_size=250.0,
        sensor_count=10,
        duration=12.0,
        coverage_resolution=25.0,
        seed=3,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def tiny_sweep(name="svc", values=(40.0, 55.0), **scenario_overrides):
    return SweepSpec.grid(
        name,
        tiny_scenario(**scenario_overrides),
        schemes=("CPVF",),
        axes={"communication_range": list(values)},
    )


def bad_spec():
    return RunSpec(
        scenario=tiny_scenario(),
        scheme="VOR",
        scheme_params={"rounds": 1, "bogus": 1},
    )


@pytest.fixture(scope="module")
def reference_records():
    # The independent reference: a plain loop, no sweep executor.
    return [execute_run(spec) for spec in tiny_sweep().runs]


@pytest.mark.parametrize("jobs", [1, 2])
class TestDeterminism:
    def test_cold_store(self, tmp_path, jobs, reference_records):
        runner = SweepRunner(jobs=jobs, store=tmp_path / "store")
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.metrics.computed == len(reference_records)
        assert runner.metrics.store_hits == 0

    def test_warm_store_recomputes_nothing(self, tmp_path, jobs, reference_records):
        store = RunStore(tmp_path / "store")
        for record in reference_records:
            store.put(record)
        runner = SweepRunner(jobs=jobs, store=store)
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.metrics.computed == 0
        assert runner.metrics.store_hits == len(reference_records)
        assert runner.metrics.cache_hit_rate() == 1.0

    def test_partial_store_recomputes_only_missing_cells(
        self, tmp_path, jobs, reference_records
    ):
        store = RunStore(tmp_path / "store")
        store.put(reference_records[0])
        runner = SweepRunner(jobs=jobs, store=store)
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.metrics.store_hits == 1
        assert runner.metrics.computed == len(reference_records) - 1

    def test_refresh_recomputes_but_still_persists(
        self, tmp_path, jobs, reference_records
    ):
        store = RunStore(tmp_path / "store")
        for record in reference_records:
            store.put(record)
        runner = SweepRunner(jobs=jobs, store=store, reuse=False)
        assert runner.run(tiny_sweep()) == reference_records
        assert runner.metrics.store_hits == 0
        assert runner.metrics.computed == len(reference_records)
        assert len(store) == len(reference_records)

    def test_write_through_persists_every_cell(
        self, tmp_path, jobs, reference_records
    ):
        SweepRunner(jobs=jobs, store=tmp_path / "store").run(tiny_sweep())
        store = RunStore(tmp_path / "store")
        assert len(store) == len(reference_records)
        for record in reference_records:
            assert store.get(record.spec) == record


class TestInSweepDedup:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repeated_spec_computed_once_and_rebound(
        self, jobs, reference_records
    ):
        spec = tiny_sweep().runs[0]
        copies = [
            spec.replace(tags={"copy": index}) for index in range(3)
        ]
        runner = SweepRunner(jobs=jobs)
        records = runner.run(copies + [tiny_sweep().runs[1]])
        assert runner.metrics.computed == 2
        assert runner.metrics.inflight_hits == 2
        assert runner.last_cache == {"cells": 4, "hits": 2, "computed": 2}
        assert [r.tag("copy") for r in records[:3]] == [0, 1, 2]
        assert records == [execute_run(s) for s in copies] + reference_records[1:]

    def test_copy_of_a_stored_cell_is_an_inflight_hit(
        self, tmp_path, reference_records
    ):
        store = RunStore(tmp_path / "store")
        store.put(reference_records[0])
        spec = reference_records[0].spec
        runner = SweepRunner(jobs=1, store=store)
        records = runner.run([spec, spec.replace(tags={"copy": 1})])
        assert runner.metrics.store_hits == 1
        assert runner.metrics.inflight_hits == 1
        assert runner.metrics.computed == 0
        assert records[1].tag("copy") == 1


class TestCellCallback:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_callback_sees_every_cell_exactly_once(self, tmp_path, jobs):
        store = RunStore(tmp_path / "store")
        sweep = tiny_sweep(values=(40.0, 50.0, 60.0)).runs
        store.put(execute_run(sweep[0]))
        specs = list(sweep) + [sweep[1]]
        seen = []
        records = SweepRunner(jobs=jobs, store=store).run(
            specs,
            on_cell=lambda index, spec, record, source: seen.append(
                (index, spec, record, source)
            ),
        )
        assert sorted(index for index, *_ in seen) == [0, 1, 2, 3]
        for index, spec, record, source in seen:
            assert spec == specs[index]
            assert record == records[index]
        sources = {index: source for index, _, _, source in seen}
        assert sources == {
            0: "store", 1: "computed", 2: "computed", 3: "inflight"
        }

    def test_failed_cell_reported_with_no_record(self):
        seen = []
        with pytest.raises(TypeError):
            SweepRunner(jobs=1).run(
                [bad_spec()],
                on_cell=lambda *cell: seen.append(cell),
            )
        assert seen == [(0, bad_spec(), None, "failed")]


class TestFailures:
    def test_failed_cell_counts_and_raises(self):
        runner = SweepRunner(jobs=1)
        with pytest.raises(TypeError, match="bogus"):
            runner.run([bad_spec()])
        assert runner.metrics.failed == 1
        assert runner.metrics.computed == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_lets_later_cells_persist(self, tmp_path, jobs):
        good = tiny_sweep(values=(40.0, 50.0, 60.0)).runs
        store = RunStore(tmp_path / "store")
        runner = SweepRunner(jobs=jobs, store=store)
        with pytest.raises(TypeError, match="bogus"):
            runner.run([bad_spec(), *good, bad_spec()])
        assert runner.metrics.failed == 2
        assert runner.metrics.computed == 3
        assert len(store) == 3
        for spec in good:
            assert store.get(spec) == execute_run(spec)

    def test_first_failure_in_spec_order_is_raised(self):
        other = RunSpec(
            scenario=tiny_scenario(),
            scheme="VOR",
            scheme_params={"rounds": 1, "other": 1},
        )
        with pytest.raises(TypeError, match="other"):
            SweepRunner(jobs=2).run([other, bad_spec()])


class TestMetrics:
    def test_export_shape_and_accumulation(self):
        runner = SweepRunner(jobs=1)
        runner.run(tiny_sweep())
        runner.run(tiny_sweep())
        exported = runner.metrics.to_dict()
        assert exported["jobs_submitted"] == 2
        assert exported["cells_submitted"] == 4
        assert exported["computed"] == 4
        assert exported["compute_seconds"] > 0
        assert set(exported) == {
            "jobs_submitted", "cells_submitted", "store_hits",
            "inflight_hits", "computed", "failed", "compute_seconds",
            "cache_hit_rate",
        }
        assert runner.last_cache == {"cells": 2, "hits": 0, "computed": 2}
