"""Deployment-as-a-service: the run store and the sweep command line.

This package is the serving layer grown over the declarative experiment
API (:mod:`repro.api`).  The sweep executor itself is
:class:`repro.api.sweep.SweepRunner`; this package adds:

* :mod:`repro.service.store` — the content-addressed
  :class:`RunStore`: records keyed by the canonical fingerprint of their
  spec (:func:`repro.api.specs.run_fingerprint`), filesystem backend,
  atomic writes, schema-versioned invalidation and GC;
* :mod:`repro.service.cli` — ``python -m repro.service``
  (``submit`` / ``status`` / ``gc`` / ``stats``), which drives
  ``SweepRunner`` against a store and accumulates its
  :class:`ServiceMetrics` counters in the store's sidecar.

Quick start::

    from repro.api import ScenarioSpec, SweepRunner, SweepSpec
    from repro.service import RunStore

    sweep = SweepSpec.grid(
        "demo",
        ScenarioSpec(field_size=300.0, sensor_count=24, duration=80.0),
        schemes=("CPVF", "FLOOR"),
        axes={"communication_range": [30.0, 60.0]},
    )

    runner = SweepRunner(jobs=4, store=RunStore("runs/"))
    records = runner.run(
        sweep,
        on_cell=lambda index, spec, record, source: print(index, source),
    )
    print(runner.metrics.to_counters())

See ``docs/service.md`` for the executor, the store layout, the
fingerprint contract and resume semantics.
"""

from ..api.sweep import ServiceMetrics
from .store import GCReport, RunStore, StoreStats

__all__ = [
    "ServiceMetrics",
    "RunStore",
    "StoreStats",
    "GCReport",
]
