"""Worker backends for the sweep service.

The service dispatches cache misses to a :class:`WorkerPool`.  The
contract is deliberately narrow — ``await execute(spec) -> record`` — and
:func:`worker_pool` is the one place a backend is chosen, from the job
count alone, for both :class:`~repro.api.sweep.SweepRunner` and
``python -m repro.service submit``:

* :class:`InlineWorkerPool` (``jobs == 1``) — runs one cell at a time on a
  thread of this process, which keeps the event loop live for progress
  events and cancellation;
* :class:`ProcessWorkerPool` (``jobs > 1``) — a ``concurrent.futures``
  ``ProcessPoolExecutor`` fed pickled :class:`~repro.api.specs.RunSpec`
  objects; true parallelism on multi-core hosts.
"""

from __future__ import annotations

import abc
import asyncio
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from ..api.schemes import execute_run
from ..api.specs import RunRecord, RunSpec

__all__ = [
    "WorkerPool",
    "InlineWorkerPool",
    "ProcessWorkerPool",
    "worker_pool",
]


class WorkerPool(abc.ABC):
    """Executes one run spec somewhere and returns its record."""

    @abc.abstractmethod
    async def execute(self, spec: RunSpec) -> RunRecord:
        """Compute the record for ``spec`` (may run anywhere)."""

    def close(self) -> None:
        """Release any held workers (idempotent)."""


class InlineWorkerPool(WorkerPool):
    """In-process execution, one cell at a time, off the event loop."""

    def __init__(self):
        self._lock = asyncio.Lock()

    async def execute(self, spec: RunSpec) -> RunRecord:
        async with self._lock:
            return await asyncio.to_thread(execute_run, spec)


class ProcessWorkerPool(WorkerPool):
    """Worker processes, each claiming one pickled spec at a time."""

    def __init__(self, max_workers: int):
        self.max_workers = max_workers
        self._executor: Optional[ProcessPoolExecutor] = None

    async def execute(self, spec: RunSpec) -> RunRecord:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, execute_run, spec)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


def worker_pool(jobs: int, cells: int) -> WorkerPool:
    """The backend for ``jobs`` workers over a sweep of ``cells`` cells."""
    workers = min(jobs, cells)
    if workers <= 1:
        return InlineWorkerPool()
    return ProcessWorkerPool(workers)
