"""The process-sharded sweep executor.

Every run in a sweep is independent — the paper's figures are grids of
runs differing only in scheme, ranges, population or seed — so sweeps
parallelise trivially across processes.  :class:`SweepRunner` executes a
:class:`~repro.api.specs.SweepSpec` either serially (``jobs=1``) or on a
``multiprocessing`` pool, and merges results deterministically: records
come back in spec order regardless of worker scheduling, and every per-run
random stream is fixed by the spec itself (seeds are part of the frozen
specs, derived at expansion time).  ``jobs=1`` and ``jobs=8`` therefore
produce identical record lists.

A runner may also be bound to a content-addressed
:class:`~repro.service.store.RunStore`.  Completed cells are then written
through to the store *as they finish* (by the worker processes themselves
under ``jobs=N``), which makes a killed sweep resumable; with
``reuse=True`` cells already in the store are served without recompute,
so only the missing cells of a resumed — or merely overlapping — sweep
are paid for.  Cache hits are rebound to the requesting spec, so the
record list is identical to a cold ``jobs=1`` run either way.

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

import multiprocessing
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .schemes import execute_run
from .specs import RunRecord, RunSpec, SweepSpec

__all__ = ["SweepRunner", "default_job_count"]


def default_job_count() -> int:
    """A sensible ``jobs`` value for this machine (one per CPU)."""
    return max(1, os.cpu_count() or 1)


def _execute_and_store(args: Tuple[RunSpec, str, int]) -> RunRecord:
    """Worker task: execute one spec and write it through to the store.

    Module-level (pickles cleanly) and write-as-you-finish: even when the
    parent dies before the pool's map returns, every completed cell is
    already persisted — the resume guarantee.
    """
    spec, store_root, schema_version = args
    from ..service.store import RunStore

    record = execute_run(spec)
    RunStore(store_root, schema_version=schema_version).put(record)
    return record


class SweepRunner:
    """Executes sweep runs, optionally sharded across worker processes."""

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
        runs = list(sweep.runs) if isinstance(sweep, SweepSpec) else list(sweep)
        if not runs:
            self.last_cache = {"cells": 0, "hits": 0, "computed": 0}
            return []
        if self.store is None:
            self.last_cache = {
                "cells": len(runs), "hits": 0, "computed": len(runs),
            }
            jobs = min(self.jobs, len(runs))
            if jobs == 1:
                return [execute_run(spec) for spec in runs]
            # ``Pool.imap`` preserves input order, which is the
            # deterministic merge: record i always belongs to spec i.  It
            # also hands out one run at a time, where ``Pool.map`` would
            # batch several runs per worker.
            with multiprocessing.Pool(processes=jobs) as pool:
                return list(pool.imap(execute_run, runs))
        return self._run_with_store(runs)

    def _run_with_store(self, runs: List[RunSpec]) -> List[RunRecord]:
        """The store-aware path: serve hits, compute misses, write through."""
        records: List[Optional[RunRecord]] = [None] * len(runs)
        misses: List[int] = []
        if self.reuse:
            for index, spec in enumerate(runs):
                cached = self.store.get(spec)
                if cached is not None:
                    records[index] = cached
                else:
                    misses.append(index)
        else:
            misses = list(range(len(runs)))
        self.last_cache = {
            "cells": len(runs),
            "hits": len(runs) - len(misses),
            "computed": len(misses),
        }
        if not misses:
            return records
        jobs = min(self.jobs, len(misses))
        if jobs == 1:
            # Write through after every cell, not at the end: a kill at
            # any point loses at most the cell in progress.
            for index in misses:
                record = execute_run(runs[index])
                self.store.put(record)
                records[index] = record
        else:
            tasks = [
                (runs[index], str(self.store.root), self.store.schema_version)
                for index in misses
            ]
            with multiprocessing.Pool(processes=jobs) as pool:
                computed = list(pool.imap(_execute_and_store, tasks))
            for index, record in zip(misses, computed):
                records[index] = record
        return records
