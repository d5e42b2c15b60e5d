"""The async sweep service: determinism, dedup, resume, observability."""

import asyncio

import pytest

from repro.api import RunSpec, ScenarioSpec, SweepSpec, execute_run
from repro.service import (
    InlineWorkerPool,
    ProcessWorkerPool,
    RunStore,
    SweepService,
    worker_pool,
)


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


def drive(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def reference_records():
    # The independent reference: a plain loop, no sweep executor.
    return [execute_run(spec) for spec in tiny_sweep().runs]


class TestDeterminism:
    def test_cold_service_matches_serial_runner(self, tmp_path, reference_records):
        async def scenario():
            service = SweepService(store=str(tmp_path / "store"))
            try:
                records = await service.run(tiny_sweep())
                await service.drain()
                return records, service.metrics
            finally:
                service.close()

        records, metrics = drive(scenario())
        assert records == reference_records
        assert metrics.computed == len(records)
        assert metrics.store_hits == 0

    def test_execute_single_spec(self, reference_records):
        async def scenario():
            service = SweepService()
            try:
                spec = tiny_sweep().runs[0]
                return await service.execute(spec)
            finally:
                service.close()

        assert drive(scenario()) == reference_records[0]

    def test_process_pool_matches_inline(self, tmp_path, reference_records):
        async def scenario():
            pool = ProcessWorkerPool(max_workers=2)
            service = SweepService(store=str(tmp_path / "store"), pool=pool)
            try:
                return await service.run(tiny_sweep())
            finally:
                service.close()

        assert drive(scenario()) == reference_records


class TestWorkerPoolChoice:
    def test_one_job_runs_in_process(self):
        assert isinstance(worker_pool(1, 5), InlineWorkerPool)

    def test_workers_capped_at_cell_count(self):
        assert isinstance(worker_pool(4, 1), InlineWorkerPool)
        pool = worker_pool(4, 3)
        assert isinstance(pool, ProcessWorkerPool)
        assert pool.max_workers == 3


class TestDedupAndResume:
    def test_overlapping_jobs_compute_shared_cells_once(self, reference_records):
        async def scenario():
            service = SweepService()  # no store: pure in-flight dedup
            try:
                jobs = [service.submit(tiny_sweep()) for _ in range(3)]
                results = await asyncio.gather(*(job.result() for job in jobs))
                await service.drain()
                return results, service.metrics
            finally:
                service.close()

        results, metrics = drive(scenario())
        assert all(records == reference_records for records in results)
        assert metrics.computed == len(reference_records)
        assert metrics.inflight_hits == 2 * len(reference_records)

    def test_warm_store_recomputes_nothing(self, tmp_path, reference_records):
        store = RunStore(tmp_path / "store")
        for record in reference_records:
            store.put(record)

        async def scenario():
            service = SweepService(store=store)
            try:
                records = await service.run(tiny_sweep())
                return records, service.metrics
            finally:
                service.close()

        records, metrics = drive(scenario())
        assert records == reference_records
        assert metrics.computed == 0
        assert metrics.store_hits == len(reference_records)
        assert metrics.cache_hit_rate() == 1.0

    def test_partial_store_recomputes_only_missing_cells(
        self, tmp_path, reference_records
    ):
        store = RunStore(tmp_path / "store")
        store.put(reference_records[0])

        async def scenario():
            service = SweepService(store=store)
            try:
                records = await service.run(tiny_sweep())
                await service.drain()
                return records, service.metrics
            finally:
                service.close()

        records, metrics = drive(scenario())
        assert records == reference_records
        assert metrics.store_hits == 1
        assert metrics.computed == len(reference_records) - 1

    def test_refresh_mode_recomputes_but_still_persists(
        self, tmp_path, reference_records
    ):
        store = RunStore(tmp_path / "store")
        for record in reference_records:
            store.put(record)

        async def scenario():
            service = SweepService(store=store, reuse=False)
            try:
                records = await service.run(tiny_sweep())
                await service.drain()
                return records, service.metrics
            finally:
                service.close()

        records, metrics = drive(scenario())
        assert records == reference_records
        assert metrics.store_hits == 0
        assert metrics.computed == len(reference_records)
        assert len(store) == len(reference_records)

    def test_write_through_persists_every_cell(self, tmp_path, reference_records):
        async def scenario():
            service = SweepService(store=str(tmp_path / "store"))
            try:
                await service.run(tiny_sweep())
                await service.drain()
            finally:
                service.close()

        drive(scenario())
        store = RunStore(tmp_path / "store")
        assert len(store) == len(reference_records)
        for record in reference_records:
            assert store.get(record.spec) == record


class TestObservability:
    def test_event_stream_replays_backlog(self, reference_records):
        async def scenario():
            service = SweepService()
            try:
                job = service.submit(tiny_sweep())
                await job.result()
                # Subscribing after completion still yields the full stream.
                return [event async for event in job.events()], job.status()
            finally:
                service.close()

        events, status = drive(scenario())
        done = [e for e in events if e.status == "done"]
        assert len(done) == len(reference_records)
        assert {e.status for e in events} <= {"scheduled", "done"}
        assert all(e.source == "computed" for e in done)
        assert status["finished"] is True
        assert status["completed"] == len(reference_records)
        assert status["by_source"]["computed"] == len(reference_records)

    def test_metrics_export_shape(self):
        async def scenario():
            service = SweepService()
            try:
                await service.run(tiny_sweep())
                return service.metrics.to_dict()
            finally:
                service.close()

        exported = drive(scenario())
        assert exported["jobs_submitted"] == 1
        assert exported["cells_submitted"] == 2
        assert exported["max_queue_depth"] >= 1
        assert exported["queue_depth"] == 0
        assert exported["compute_seconds"] > 0


class TestFailureAndCancellation:
    def test_failed_cell_fails_the_job_and_counts(self):
        bad = RunSpec(scenario=tiny_scenario(), scheme="CPVF",
                      scheme_params={"mode": "no-such-mode"})

        async def scenario():
            service = SweepService()
            try:
                job = service.submit([bad])
                with pytest.raises(Exception):
                    await job.result()
                events = [event async for event in job.events()]
                return service.metrics, events
            finally:
                service.close()

        metrics, events = drive(scenario())
        assert metrics.failed == 1
        assert events[-1].status == "failed"
        assert events[-1].error

    def test_cancel_kills_the_job_not_the_store(self, tmp_path):
        async def scenario():
            service = SweepService(store=str(tmp_path / "store"))
            try:
                job = service.submit(tiny_sweep())
                assert job.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await job.result()
                # Shielded computations finish and write through.
                await service.drain()
            finally:
                service.close()

        drive(scenario())
