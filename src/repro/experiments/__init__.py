"""Reproductions of every table and figure in the paper's evaluation.

Every experiment is declared as a grid of independent runs and executed
through the declarative experiment API (:mod:`repro.api`, re-exported
here):

* a frozen :class:`ScenarioSpec` describes one setting — field layout by
  registered name, initial placement, ranges, kinematics, seed — and
  builds a ready-to-run world in one pass;
* a :class:`RunSpec` pairs a scenario with a registered scheme name
  (CPVF/FLOOR and VOR/Minimax on the simulation engine, analytic
  OPT/OPT-Hungarian without one, all behind one adapter interface);
* a :class:`SweepSpec` names a tuple of runs, and :class:`SweepRunner`
  executes it — serially or sharded over worker processes — yielding
  typed, JSON-serializable :class:`RunRecord` objects that are identical
  whatever the job count.

Each figure module has one surface and nothing that executes: a
``sweep_<figure>(scale, ..., seed, trace_every)`` builder, the one
signature that declares the figure's axes; ``rows_<figure>(records)``
(``summary_fig13`` for Fig 13), which reads executed records back; and
``format_<figure>(rows)``, which renders the text table.  Fig 8 is Fig 3's
sweep under FLOOR, so its records go through ``rows_fig3`` and
``format_fig3``.  Callers compose the three with a :class:`SweepRunner`;
:func:`repro.experiments.runner.run_experiment_records` runs a registered
experiment by name.

Run a single scheme::

    from repro.experiments import SMOKE_SCALE, make_scenario
    from repro.experiments import RunSpec, execute_run

    scenario = make_scenario(SMOKE_SCALE, communication_range=60.0, seed=7)
    record = execute_run(RunSpec(scenario=scenario, scheme="FLOOR"))
    print(f"coverage: {record.coverage:.1%}")

Run a figure's sweep on eight processes, with per-period coverage traces::

    from repro.experiments import BENCH_SCALE, SweepRunner
    from repro.experiments.fig3 import sweep_fig3, rows_fig3, format_fig3

    records = SweepRunner(jobs=8).run(sweep_fig3(BENCH_SCALE, trace_every=1))
    print(format_fig3(rows_fig3(records)))
    print(records[0].trace[:3])   # (time, coverage, ...) per period

Declare a custom sweep::

    from repro.experiments import ScenarioSpec, SweepSpec, SweepRunner

    sweep = SweepSpec.grid(
        "coverage-vs-rc",
        ScenarioSpec(field_size=500.0, sensor_count=70, duration=250.0),
        schemes=("CPVF", "FLOOR"),
        axes={"communication_range": [30.0, 45.0, 60.0]},
        repetitions=4,     # per-repetition seeds are spawned deterministically
    )
    records = SweepRunner(jobs=4).run(sweep)

The command line (see :mod:`repro.experiments.runner`)::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner --scale smoke --only fig3 \\
        --jobs 2 --trace-every 1 --out results/
"""

from ..api import (
    RunRecord,
    RunSpec,
    ScenarioSpec,
    SweepRunner,
    SweepSpec,
    TracePoint,
    derive_seed,
    execute_run,
    layout_registry,
    placement_registry,
    register_layout,
    register_placement,
    register_scheme,
    scheme_registry,
)
from .common import (
    BENCH_SCALE,
    FULL_SCALE,
    SMOKE_SCALE,
    ExperimentScale,
    format_coverage_traces,
    make_scenario,
)
from .degradation import (
    DegradationRow,
    format_degradation,
    rows_degradation,
    sweep_degradation,
)
from .fig3 import Fig3Row, format_fig3, rows_fig3, sweep_fig3
from .fig8 import sweep_fig8
from .fig9 import Fig9Row, format_fig9, rows_fig9, sweep_fig9
from .fig10 import Fig10Row, format_fig10, rows_fig10, sweep_fig10
from .fig11 import Fig11Row, format_fig11, rows_fig11, sweep_fig11
from .fig12 import Fig12Row, format_fig12, rows_fig12, sweep_fig12
from .fig13 import (
    Fig13Run,
    Fig13Summary,
    format_fig13,
    summary_fig13,
    sweep_fig13,
)
from .lifecycle import (
    LifecycleRow,
    format_lifecycle,
    lifecycle_events,
    rows_lifecycle,
    sweep_lifecycle,
)
from .table1 import (
    Table1Row,
    format_table1,
    rows_table1,
    sweep_table1,
)

__all__ = [
    # Declarative API (repro.api re-exports)
    "ScenarioSpec",
    "RunSpec",
    "RunRecord",
    "SweepSpec",
    "SweepRunner",
    "TracePoint",
    "execute_run",
    "derive_seed",
    "scheme_registry",
    "layout_registry",
    "placement_registry",
    "register_scheme",
    "register_layout",
    "register_placement",
    # Scales and canonical-setting helpers
    "BENCH_SCALE",
    "FULL_SCALE",
    "SMOKE_SCALE",
    "ExperimentScale",
    "make_scenario",
    "format_coverage_traces",
    # Figures and tables
    "Fig3Row",
    "sweep_fig3",
    "rows_fig3",
    "format_fig3",
    "sweep_fig8",
    "Fig9Row",
    "sweep_fig9",
    "rows_fig9",
    "format_fig9",
    "Fig10Row",
    "sweep_fig10",
    "rows_fig10",
    "format_fig10",
    "Fig11Row",
    "sweep_fig11",
    "rows_fig11",
    "format_fig11",
    "Fig12Row",
    "sweep_fig12",
    "rows_fig12",
    "format_fig12",
    "Fig13Run",
    "Fig13Summary",
    "sweep_fig13",
    "summary_fig13",
    "format_fig13",
    "Table1Row",
    "sweep_table1",
    "rows_table1",
    "format_table1",
    "LifecycleRow",
    "lifecycle_events",
    "sweep_lifecycle",
    "rows_lifecycle",
    "format_lifecycle",
    "DegradationRow",
    "sweep_degradation",
    "rows_degradation",
    "format_degradation",
]
