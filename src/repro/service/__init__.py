"""Deployment-as-a-service: the async sweep fabric and run store.

This package is the serving layer grown over the declarative experiment
API (:mod:`repro.api`).  The pieces compose bottom-up:

* :mod:`repro.service.store` — the content-addressed
  :class:`RunStore`: records keyed by the canonical fingerprint of their
  spec (:func:`repro.api.specs.run_fingerprint`), filesystem backend,
  atomic writes, schema-versioned invalidation and GC;
* :mod:`repro.service.workers` — the :class:`WorkerPool` backends (one
  in-process thread, or a process pool) and :func:`worker_pool`, which
  picks one from the job count;
* :mod:`repro.service.service` — the :class:`SweepService`: an asyncio
  job queue that deduplicates identical cells across overlapping
  submissions, serves warm cells from the store, streams per-cell
  progress to each subscriber and keeps live metrics;
* :mod:`repro.service.cli` — ``python -m repro.service``
  (``submit`` / ``status`` / ``gc`` / ``stats``).

Quick start::

    import asyncio
    from repro.api import ScenarioSpec, SweepSpec
    from repro.service import ProcessWorkerPool, RunStore, SweepService

    sweep = SweepSpec.grid(
        "demo",
        ScenarioSpec(field_size=300.0, sensor_count=24, duration=80.0),
        schemes=("CPVF", "FLOOR"),
        axes={"communication_range": [30.0, 60.0]},
    )

    async def main():
        service = SweepService(store=RunStore("runs/"), pool=ProcessWorkerPool(4))
        job = service.submit(sweep)
        async for event in job.events():
            print(event.status, event.index, event.source)
        return await job.result()

    records = asyncio.run(main())

See ``docs/service.md`` for the architecture, the store layout, the
fingerprint contract and resume semantics.
"""

from .service import CellEvent, ServiceMetrics, SweepJob, SweepService
from .store import GCReport, RunStore, StoreStats
from .workers import InlineWorkerPool, ProcessWorkerPool, WorkerPool, worker_pool

__all__ = [
    "CellEvent",
    "ServiceMetrics",
    "SweepJob",
    "SweepService",
    "RunStore",
    "StoreStats",
    "GCReport",
    "WorkerPool",
    "InlineWorkerPool",
    "ProcessWorkerPool",
    "worker_pool",
]
