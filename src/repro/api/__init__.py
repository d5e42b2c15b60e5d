"""The declarative experiment API: specs, registries and the sweep executor.

This package is the experiment-facing surface of the reproduction (it is
re-exported from :mod:`repro.experiments`).  The pieces compose bottom-up:

* :mod:`repro.api.registry` — name registries for schemes, field layouts
  and initial placements, with decorator registration and error messages
  that list the available names;
* :mod:`repro.api.scenario` — the frozen :class:`ScenarioSpec` that builds
  a :class:`~repro.sim.world.World` in one pass;
* :mod:`repro.api.specs` — :class:`RunSpec` / :class:`SweepSpec` grids and
  the typed, JSON-serializable :class:`RunRecord`;
* :mod:`repro.api.schemes` — adapters unifying the schemes that run on
  the simulation engine (CPVF, FLOOR and the VD baselines VOR, Minimax)
  and the analytic baselines (OPT, OPT-Hungarian) behind ``execute_run``;
* :mod:`repro.api.sweep` — :class:`SweepRunner`, the one sweep executor:
  run-store lookup (:mod:`repro.service`), in-sweep dedup, serial or
  process-sharded.

Quick start::

    from repro.api import ScenarioSpec, RunSpec, SweepSpec, SweepRunner

    scenario = ScenarioSpec(field_size=300.0, sensor_count=24, duration=80.0)
    sweep = SweepSpec.grid(
        "demo", scenario, schemes=("CPVF", "FLOOR"),
        axes={"communication_range": [30.0, 60.0]},
    )
    for record in SweepRunner(jobs=2).run(sweep):
        print(record.scheme, record.scenario.communication_range,
              f"{record.coverage:.1%}")
"""

from ..determinism import derive_seed, freeze_params
from ..network import NetworkSpec
from ..obs import TelemetrySummary
from .registry import (
    Registry,
    layout_registry,
    placement_registry,
    register_layout,
    register_placement,
    register_scheme,
    scheme_registry,
)
from .scenario import ScenarioSpec, thaw_params
from .schemes import (
    PeriodSchemeAdapter,
    SchemeAdapter,
    VDSchemeAdapter,
    execute_run,
    hungarian_bound,
)
from .specs import (
    SPEC_SCHEMA_VERSION,
    RunRecord,
    RunSpec,
    SweepSpec,
    TracePoint,
    canonical_json,
    run_fingerprint,
)
from .sweep import SweepRunner, default_job_count

__all__ = [
    "Registry",
    "scheme_registry",
    "layout_registry",
    "placement_registry",
    "register_scheme",
    "register_layout",
    "register_placement",
    "ScenarioSpec",
    "freeze_params",
    "thaw_params",
    "SchemeAdapter",
    "PeriodSchemeAdapter",
    "VDSchemeAdapter",
    "execute_run",
    "hungarian_bound",
    "derive_seed",
    "SPEC_SCHEMA_VERSION",
    "canonical_json",
    "run_fingerprint",
    "TracePoint",
    "TelemetrySummary",
    "NetworkSpec",
    "RunSpec",
    "RunRecord",
    "SweepSpec",
    "SweepRunner",
    "default_job_count",
]
