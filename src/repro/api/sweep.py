"""The sweep executor.

Every run in a sweep is independent — the paper's figures are grids of
runs differing only in scheme, ranges, population or seed — so sweeps
parallelise trivially across processes.  :meth:`SweepRunner.run` is the
one sweep executor, a plain synchronous loop:

1. every spec is fingerprinted (:meth:`~repro.api.specs.RunSpec.fingerprint`);
2. with ``reuse=True`` the first occurrence of each fingerprint is served
   from the bound :class:`~repro.service.store.RunStore` when it holds the
   record;
3. later occurrences of a fingerprint within the same sweep are served
   from the first one (the *in-flight* hits: computed once, rebound to
   each copy's spec);
4. the remaining misses run in this process when ``min(jobs, misses) ==
   1`` and otherwise on one ``ProcessPoolExecutor`` of that many
   workers; the parent writes each record through to the store the
   moment it completes, which makes a killed sweep resumable.

A failing cell does not stop the others: once every cell has settled the
first failure in spec order is raised.  Records come back in spec order
regardless of worker scheduling, and every per-run random stream is fixed
by the spec itself (seeds are part of the frozen specs, derived at
expansion time), so ``jobs=1`` and ``jobs=8``, cold or warm store, produce
identical record lists — and all equal ``[execute_run(s) for s in
sweep.runs]``.  Store hits are rebound to the requesting spec, so a hit
is indistinguishable from a fresh run.

``concurrent.futures`` (and the store) are imported on the first
:meth:`SweepRunner.run` that needs them, never by ``import repro``.

Example::

    from repro.api import ScenarioSpec, SweepSpec, SweepRunner

    sweep = SweepSpec.grid(
        "coverage-vs-n",
        ScenarioSpec(field_size=300.0, duration=80.0, sensor_count=24),
        schemes=("CPVF", "FLOOR"),
        axes={"sensor_count": [16, 24, 32]},
    )
    records = SweepRunner(jobs=4, store="runs/", reuse=True).run(
        sweep, on_cell=lambda index, spec, record, source: print(index, source)
    )
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .schemes import execute_run
from .specs import RunRecord, RunSpec, SweepSpec

__all__ = ["ServiceMetrics", "SweepRunner", "default_job_count"]

#: ``on_cell(index, spec, record, source)``: called once per cell as it
#: settles.  ``source`` is ``"store"``, ``"inflight"`` (a copy of an
#: earlier cell of the same sweep), ``"computed"`` or ``"failed"`` (then
#: ``record`` is ``None``).
CellCallback = Callable[[int, RunSpec, Optional[RunRecord], str], None]


def default_job_count() -> int:
    """A sensible ``jobs`` value for this machine (one per CPU)."""
    return max(1, os.cpu_count() or 1)


@dataclass
class ServiceMetrics:
    """Sweep counters of one :class:`SweepRunner`, summed over its runs."""

    jobs_submitted: int = 0
    cells_submitted: int = 0
    store_hits: int = 0
    #: Cells served from an earlier cell of the same sweep with the same
    #: fingerprint (computed once, rebound to each copy's spec).
    inflight_hits: int = 0
    computed: int = 0
    failed: int = 0
    #: Total worker seconds spent on computed cells.
    compute_seconds: float = 0.0

    def cache_hit_rate(self) -> float:
        """Fraction of settled cells served without new computation."""
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
            "compute_seconds": self.compute_seconds,
            "cache_hit_rate": self.cache_hit_rate(),
        }

    def to_counters(self, prefix: str = "service.") -> Dict[str, int]:
        """The monotone counters in the shared telemetry schema.

        ``service.*`` keys with integer values — the same dotted schema
        :class:`repro.obs.Telemetry` counters and
        ``MessageStats.to_counters`` use, so sweep counters merge into a
        :class:`~repro.obs.TelemetrySummary` (timings and derived rates
        stay in :meth:`to_dict`).
        """
        return {
            f"{prefix}jobs_submitted": self.jobs_submitted,
            f"{prefix}cells_submitted": self.cells_submitted,
            f"{prefix}store_hits": self.store_hits,
            f"{prefix}inflight_hits": self.inflight_hits,
            f"{prefix}computed": self.computed,
            f"{prefix}failed": self.failed,
        }


def _timed_run(spec: RunSpec) -> Tuple[RunRecord, float]:
    """``execute_run`` plus its wall seconds (runs in a worker process)."""
    started = time.perf_counter()
    record = execute_run(spec)
    return record, time.perf_counter() - started


class SweepRunner:
    """Runs a sweep to completion and returns its records in spec order."""

    def __init__(
        self,
        jobs: int = 1,
        store=None,
        reuse: bool = True,
    ):
        """``jobs=1`` runs in-process; ``jobs=N`` shards over ``N`` workers.

        A worker claims one run at a time, so long runs never serialise
        behind each other.

        ``store`` binds the runner to a content-addressed run store (a
        :class:`~repro.service.store.RunStore` or a filesystem path);
        computed cells are written through as they finish.  ``reuse``
        controls the read side: ``True`` serves stored cells without
        recompute (resume/cache semantics), ``False`` keeps the store
        write-through only (refresh semantics).
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = int(jobs)
        if isinstance(store, (str, Path)):
            from ..service.store import RunStore

            store = RunStore(store)
        self.store = store
        self.reuse = bool(reuse)
        #: Counters summed over every :meth:`run` of this runner.
        self.metrics = ServiceMetrics()
        #: ``{"cells", "hits", "computed"}`` of the most recent :meth:`run`.
        self.last_cache: Optional[Dict[str, int]] = None

    def run(
        self,
        sweep: Union[SweepSpec, Sequence[RunSpec], Iterable[RunSpec]],
        on_cell: Optional[CellCallback] = None,
    ) -> List[RunRecord]:
        """Execute every run and return records in spec order.

        ``on_cell`` (see :data:`CellCallback`) sees every cell exactly
        once, in the order the cells settle.
        """
        runs = list(sweep.runs) if isinstance(sweep, SweepSpec) else list(sweep)
        metrics = self.metrics
        hits_before = metrics.store_hits + metrics.inflight_hits
        computed_before = metrics.computed
        metrics.jobs_submitted += 1
        metrics.cells_submitted += len(runs)
        records: List[Optional[RunRecord]] = [None] * len(runs)
        errors: Dict[int, Exception] = {}

        # First occurrence of each fingerprint -> the later copies it serves.
        fingerprints = [spec.fingerprint() for spec in runs]
        first: Dict[str, int] = {}
        copies: Dict[int, List[int]] = {}
        for index, fingerprint in enumerate(fingerprints):
            if fingerprint in first:
                copies[first[fingerprint]].append(index)
            else:
                first[fingerprint] = index
                copies[index] = []

        def settle(index: int, outcome: Union[RunRecord, Exception], source: str):
            """Settle a first occurrence, then every copy of it."""
            for cell in [index] + copies[index]:
                record = None
                if isinstance(outcome, Exception):
                    metrics.failed += 1
                    errors[cell] = outcome
                    source = "failed"
                elif cell == index:
                    record = outcome
                else:
                    metrics.inflight_hits += 1
                    record = outcome.rebind(runs[cell])
                    source = "inflight"
                records[cell] = record
                if on_cell is not None:
                    on_cell(cell, runs[cell], record, source)

        def computed(index: int, record: RunRecord, seconds: float) -> None:
            metrics.computed += 1
            metrics.compute_seconds += seconds
            if self.store is not None:
                # Write-through: a killed sweep leaves every finished
                # cell behind, so a resume recomputes only the rest.
                self.store.put(record, fingerprints[index])
            settle(index, record, "computed")

        misses: List[int] = []
        for index in copies:
            cached = None
            if self.reuse and self.store is not None:
                cached = self.store.load(fingerprints[index])
            if cached is None:
                misses.append(index)
            else:
                metrics.store_hits += 1
                settle(index, cached.rebind(runs[index]), "store")

        workers = min(self.jobs, len(misses))
        if workers == 1:
            for index in misses:
                try:
                    outcome = _timed_run(runs[index])
                except Exception as exc:
                    settle(index, exc, "failed")
                else:
                    computed(index, *outcome)
        elif workers > 1:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                futures = {
                    pool.submit(_timed_run, runs[index]): index
                    for index in misses
                }
                for future in as_completed(futures):
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        settle(futures[future], exc, "failed")
                    else:
                        computed(futures[future], *outcome)
            finally:
                pool.shutdown(wait=True, cancel_futures=True)

        self.last_cache = {
            "cells": len(runs),
            "hits": metrics.store_hits + metrics.inflight_hits - hits_before,
            "computed": metrics.computed - computed_before,
        }
        if errors:
            raise errors[min(errors)]
        return records
