"""The async sweep service: job queue, in-flight dedup, progress streams.

:class:`SweepService` accepts :class:`~repro.api.specs.SweepSpec` /
:class:`~repro.api.specs.RunSpec` submissions from any number of
concurrent clients on one event loop and serves every cell from the
cheapest source available:

1. **store** — the content-addressed :class:`~repro.service.store.RunStore`
   already holds the record (a prior sweep computed it, or this sweep is
   being resumed after a kill);
2. **in-flight dedup** — another job is computing the same fingerprint
   right now; the cell attaches to that computation instead of starting a
   second one (overlapping sweeps share cells by construction: the
   gallery and Figs 9-13 reuse many scenario x scheme points);
3. **worker pool** — a genuine miss is dispatched to the pluggable
   :class:`~repro.service.workers.WorkerPool` and written through to the
   store the moment it completes, which is what makes killed sweeps
   resumable with only the missing cells recomputed.

Each job streams per-cell progress events (:class:`CellEvent`) to its
subscribers, and the service keeps live counters
(:class:`ServiceMetrics`): submissions, hits, coalesced cells, computed
cells, failures, queue depth and per-cell timing.

Determinism: records are merged in spec order and every cell's content is
a pure function of its spec, so a sweep served through the service —
cold or warm store, any worker count — equals
``[execute_run(s) for s in sweep.runs]``.  The service is the only sweep
executor: :class:`~repro.api.sweep.SweepRunner` is its synchronous client.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Union

from ..api.specs import RunRecord, RunSpec, SweepSpec
from .store import RunStore
from .workers import InlineWorkerPool, WorkerPool

__all__ = ["CellEvent", "SweepJob", "ServiceMetrics", "SweepService"]

#: Where a finished cell's record came from.
CELL_SOURCES = ("store", "inflight", "computed")


@dataclass(frozen=True)
class CellEvent:
    """One progress event on one cell of one job."""

    job: str
    #: Cell index within the job's sweep (spec order).
    index: int
    fingerprint: str
    #: ``"scheduled"`` (dispatched to the worker pool), ``"done"`` or
    #: ``"failed"``.
    status: str
    scheme: str
    #: For ``done``: which source served the record (:data:`CELL_SOURCES`).
    source: Optional[str] = None
    #: Wall-clock seconds from submission to completion (``done`` only).
    elapsed: Optional[float] = None
    #: Failure detail (``failed`` only).
    error: Optional[str] = None


@dataclass
class ServiceMetrics:
    """Live service counters (see :meth:`to_dict` for the export shape)."""

    jobs_submitted: int = 0
    cells_submitted: int = 0
    store_hits: int = 0
    inflight_hits: int = 0
    computed: int = 0
    failed: int = 0
    #: Cells currently dispatched to the worker pool.
    queue_depth: int = 0
    #: High-water mark of ``queue_depth``.
    max_queue_depth: int = 0
    #: Total worker seconds spent on computed cells.
    compute_seconds: float = 0.0

    def cache_hit_rate(self) -> float:
        """Fraction of submitted cells served without new computation."""
        served = self.store_hits + self.inflight_hits + self.computed
        if not served:
            return 0.0
        return (self.store_hits + self.inflight_hits) / served

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs_submitted": self.jobs_submitted,
            "cells_submitted": self.cells_submitted,
            "store_hits": self.store_hits,
            "inflight_hits": self.inflight_hits,
            "computed": self.computed,
            "failed": self.failed,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "compute_seconds": self.compute_seconds,
            "cache_hit_rate": self.cache_hit_rate(),
        }

    def to_counters(self, prefix: str = "service.") -> Dict[str, int]:
        """The monotone counters in the shared telemetry schema.

        ``service.*`` keys with integer values — the same dotted schema
        :class:`repro.obs.Telemetry` counters and
        ``MessageStats.to_counters`` use, so service metrics merge into a
        :class:`~repro.obs.TelemetrySummary` (gauges like ``queue_depth``
        and derived rates stay in :meth:`to_dict`).
        """
        return {
            f"{prefix}jobs_submitted": self.jobs_submitted,
            f"{prefix}cells_submitted": self.cells_submitted,
            f"{prefix}store_hits": self.store_hits,
            f"{prefix}inflight_hits": self.inflight_hits,
            f"{prefix}computed": self.computed,
            f"{prefix}failed": self.failed,
        }


class SweepJob:
    """A submitted sweep: result future plus a per-cell progress stream."""

    def __init__(self, job_id: str, sweep: SweepSpec):
        self.id = job_id
        self.sweep = sweep
        self._records: List[Optional[RunRecord]] = [None] * len(sweep.runs)
        self._done: Dict[int, str] = {}
        self._backlog: List[CellEvent] = []
        self._queues: List[asyncio.Queue] = []
        self._finished = asyncio.get_running_loop().create_future()
        self._started = time.perf_counter()
        self._task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    async def result(self) -> List[RunRecord]:
        """All records in spec order (raises if any cell failed)."""
        return await asyncio.shield(self._finished)

    def status(self) -> Dict[str, Any]:
        """A point-in-time completion snapshot."""
        by_source = {source: 0 for source in CELL_SOURCES}
        for source in self._done.values():
            by_source[source] += 1
        return {
            "job": self.id,
            "sweep": self.sweep.name,
            "cells": len(self.sweep.runs),
            "completed": len(self._done),
            "by_source": by_source,
            "finished": self._finished.done(),
            "elapsed": time.perf_counter() - self._started,
        }

    async def events(self):
        """Async iterator over this job's cell events (ends at completion).

        Every subscriber gets the full stream: events fired before the
        subscription are replayed from the job's backlog, so a client that
        submits and then subscribes never misses a cell.
        """
        queue: asyncio.Queue = asyncio.Queue()
        for event in self._backlog:
            queue.put_nowait(event)
        if self._finished.done():
            queue.put_nowait(None)
        else:
            self._queues.append(queue)
        while True:
            event = await queue.get()
            if event is None:
                return
            yield event

    def cancel(self) -> bool:
        """Kill this job mid-flight.

        Cells already written to the store stay there (that is the resume
        contract); a computation another job is also waiting on keeps
        running for that job.  Returns whether a cancellation was issued.
        """
        if self._task is None or self._task.done():
            return False
        return self._task.cancel()

    # ------------------------------------------------------------------
    # Service-side hooks
    # ------------------------------------------------------------------
    def _publish(self, event: CellEvent) -> None:
        self._backlog.append(event)
        for queue in self._queues:
            queue.put_nowait(event)

    def _complete_cell(self, index: int, record: RunRecord, source: str) -> None:
        self._records[index] = record
        self._done[index] = source

    def _finish(self, error: Optional[BaseException] = None) -> None:
        for queue in self._queues:
            queue.put_nowait(None)
        self._queues.clear()
        if self._finished.done():
            return
        if error is not None:
            self._finished.set_exception(error)
        else:
            self._finished.set_result(list(self._records))


class SweepService:
    """Accepts sweep submissions and serves cells from store/dedup/workers."""

    def __init__(
        self,
        store: Optional[Union[RunStore, str]] = None,
        pool: Optional[WorkerPool] = None,
        reuse: bool = True,
    ):
        """``store=None`` runs without persistence (dedup still applies);
        ``reuse=False`` keeps the store write-through only — every cell is
        recomputed, results are still persisted (the refresh mode)."""
        self.store = RunStore(store) if isinstance(store, (str,)) else store
        self.pool = pool or InlineWorkerPool()
        self.reuse = bool(reuse)
        self.metrics = ServiceMetrics()
        self._inflight: Dict[str, asyncio.Task] = {}
        self._jobs: Dict[str, SweepJob] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        sweep: Union[SweepSpec, Sequence[RunSpec]],
        reuse: Optional[bool] = None,
    ) -> SweepJob:
        """Enqueue a sweep; returns immediately with its :class:`SweepJob`.

        Must be called on a running event loop.  ``reuse`` overrides the
        service default for this job only.
        """
        if not isinstance(sweep, SweepSpec):
            sweep = SweepSpec(name="adhoc", runs=tuple(sweep))
        job = SweepJob(f"job-{next(self._ids)}", sweep)
        self._jobs[job.id] = job
        self.metrics.jobs_submitted += 1
        self.metrics.cells_submitted += len(sweep.runs)
        use_store = self.reuse if reuse is None else bool(reuse)
        job._task = asyncio.create_task(self._run_job(job, use_store))
        # Safety net: a task cancelled before its coroutine ever ran (or
        # killed by an unexpected error) must still settle the job future,
        # or result() would wait forever.
        job._task.add_done_callback(partial(self._settle, job))
        return job

    @staticmethod
    def _settle(job: SweepJob, task: "asyncio.Task[None]") -> None:
        if job._finished.done():
            return
        if task.cancelled():
            job._finish(asyncio.CancelledError(f"{job.id} cancelled"))
        elif task.exception() is not None:
            job._finish(task.exception())

    async def run(
        self,
        sweep: Union[SweepSpec, Sequence[RunSpec]],
        reuse: Optional[bool] = None,
    ) -> List[RunRecord]:
        """Submit and await one sweep (the one-shot client call)."""
        return await self.submit(sweep, reuse=reuse).result()

    async def execute(self, spec: RunSpec, reuse: Optional[bool] = None) -> RunRecord:
        """Submit and await a single run spec."""
        records = await self.run([spec], reuse=reuse)
        return records[0]

    def job(self, job_id: str) -> SweepJob:
        """Look up a submitted job by id."""
        return self._jobs[job_id]

    def jobs(self) -> List[SweepJob]:
        """Every job submitted to this service, in submission order."""
        return list(self._jobs.values())

    async def drain(self) -> None:
        """Wait for every in-flight computation to settle.

        Call after cancelling jobs and before tearing the loop down:
        shielded computations keep running past a cancelled job, and each
        one finishes by writing its record through to the store.
        """
        while self._inflight:
            await asyncio.gather(
                *list(self._inflight.values()), return_exceptions=True
            )

    def close(self) -> None:
        """Release the worker pool."""
        self.pool.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _run_job(self, job: SweepJob, use_store: bool) -> None:
        cells = [
            self._run_cell(job, index, spec, use_store)
            for index, spec in enumerate(job.sweep.runs)
        ]
        try:
            results = await asyncio.gather(*cells, return_exceptions=True)
        except asyncio.CancelledError:
            job._finish(asyncio.CancelledError(f"{job.id} cancelled"))
            raise
        error = next(
            (r for r in results if isinstance(r, BaseException)), None
        )
        job._finish(error)

    async def _run_cell(
        self, job: SweepJob, index: int, spec: RunSpec, use_store: bool
    ) -> None:
        fingerprint = spec.fingerprint()
        started = time.perf_counter()

        def finish(record: RunRecord, source: str) -> None:
            job._complete_cell(index, record, source)
            job._publish(
                CellEvent(
                    job=job.id,
                    index=index,
                    fingerprint=fingerprint,
                    status="done",
                    scheme=spec.scheme,
                    source=source,
                    elapsed=time.perf_counter() - started,
                )
            )

        try:
            if use_store and self.store is not None:
                cached = await asyncio.to_thread(self.store.load, fingerprint)
                if cached is not None:
                    self.metrics.store_hits += 1
                    finish(cached.rebind(spec), "store")
                    return

            shared = self._inflight.get(fingerprint)
            if shared is not None:
                self.metrics.inflight_hits += 1
                record = await asyncio.shield(shared)
                finish(record.rebind(spec), "inflight")
                return

            job._publish(
                CellEvent(
                    job=job.id,
                    index=index,
                    fingerprint=fingerprint,
                    status="scheduled",
                    scheme=spec.scheme,
                )
            )
            task = asyncio.create_task(self._compute(fingerprint, spec))
            self._inflight[fingerprint] = task
            # The computation outlives this cell (shield: cancelling the
            # job must not cancel work another job may be attached to),
            # so it deregisters itself when it actually completes.
            task.add_done_callback(
                lambda t, fp=fingerprint: (
                    self._inflight.pop(fp)
                    if self._inflight.get(fp) is t
                    else None
                )
            )
            record = await asyncio.shield(task)
            finish(record, "computed")
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.metrics.failed += 1
            job._publish(
                CellEvent(
                    job=job.id,
                    index=index,
                    fingerprint=fingerprint,
                    status="failed",
                    scheme=spec.scheme,
                    error=repr(exc),
                )
            )
            raise

    async def _compute(self, fingerprint: str, spec: RunSpec) -> RunRecord:
        """One deduplicated computation: worker pool + store write-through."""
        self.metrics.queue_depth += 1
        self.metrics.max_queue_depth = max(
            self.metrics.max_queue_depth, self.metrics.queue_depth
        )
        started = time.perf_counter()
        try:
            record = await self.pool.execute(spec)
        finally:
            self.metrics.queue_depth -= 1
        self.metrics.computed += 1
        self.metrics.compute_seconds += time.perf_counter() - started
        if self.store is not None:
            # Write-through immediately: this is the resume guarantee — a
            # killed job leaves every finished cell behind.
            await asyncio.to_thread(self.store.put, record, fingerprint)
        return record
