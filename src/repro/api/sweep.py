"""The synchronous sweep client.

Every run in a sweep is independent — the paper's figures are grids of
runs differing only in scheme, ranges, population or seed — so sweeps
parallelise trivially across processes.  :class:`SweepRunner` executes a
:class:`~repro.api.specs.SweepSpec` through the one sweep executor, the
async :class:`~repro.service.service.SweepService`, and blocks until the
records are back.  ``jobs=1`` computes in this process; ``jobs=N`` shards
the cells over ``N`` worker processes.  Records come back in spec order
regardless of worker scheduling, and every per-run random stream is fixed
by the spec itself (seeds are part of the frozen specs, derived at
expansion time), so ``jobs=1`` and ``jobs=8`` produce identical record
lists — and both equal ``[execute_run(s) for s in sweep.runs]``.

A runner may also be bound to a content-addressed
:class:`~repro.service.store.RunStore`.  The service writes each completed
cell through to the store the moment it finishes, which makes a killed
sweep resumable; with ``reuse=True`` cells already in the store are served
without recompute, so only the missing cells of a resumed — or merely
overlapping — sweep are paid for.  Cache hits are rebound to the
requesting spec, so the record list is identical to a cold run either way.

The service (and with it ``asyncio``) is imported on the first
:meth:`SweepRunner.run`, never by ``import repro``.

Example::

    from repro.api import ScenarioSpec, SweepSpec, SweepRunner

    sweep = SweepSpec.grid(
        "coverage-vs-n",
        ScenarioSpec(field_size=300.0, duration=80.0, sensor_count=24),
        schemes=("CPVF", "FLOOR"),
        axes={"sensor_count": [16, 24, 32]},
    )
    records = SweepRunner(jobs=4, store="runs/", reuse=True).run(sweep)
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .specs import RunRecord, RunSpec, SweepSpec

__all__ = ["SweepRunner", "default_job_count"]


def default_job_count() -> int:
    """A sensible ``jobs`` value for this machine (one per CPU)."""
    return max(1, os.cpu_count() or 1)


class SweepRunner:
    """Runs a sweep to completion on the sweep service and returns records."""

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
        completed cells are written through as they finish.  ``reuse``
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
        #: ``{"cells", "hits", "computed"}`` of the most recent :meth:`run`.
        self.last_cache: Optional[Dict[str, int]] = None

    def run(
        self, sweep: Union[SweepSpec, Sequence[RunSpec], Iterable[RunSpec]]
    ) -> List[RunRecord]:
        """Execute every run and return records in spec order."""
        import asyncio

        from ..service.service import SweepService
        from ..service.workers import worker_pool

        runs = list(sweep.runs) if isinstance(sweep, SweepSpec) else list(sweep)
        if not runs:
            self.last_cache = {"cells": 0, "hits": 0, "computed": 0}
            return []
        service = SweepService(
            self.store, worker_pool(self.jobs, len(runs)), self.reuse
        )
        try:
            records = asyncio.run(service.run(runs))
        finally:
            service.close()
            metrics = service.metrics
            self.last_cache = {
                "cells": len(runs),
                "hits": metrics.store_hits + metrics.inflight_hits,
                "computed": metrics.computed,
            }
        return records
