"""Figure 3: CPVF layouts and coverage in three canonical scenarios.

The paper reports the coverage of CPVF with 240 sensors after 750 s for:

* (a) ``rc = 60 m``, ``rs = 40 m``, obstacle-free field  -> 74.5 %
* (b) ``rc = 30 m``, ``rs = 40 m``, obstacle-free field  -> 26.4 %
* (c) ``rc = 60 m``, ``rs = 40 m``, two-obstacle field   -> 37.1 %

The qualitative claims being reproduced: coverage collapses when ``rc``
drops below ``rs`` (sensors cluster because the connectivity constraint
keeps them within ``rc`` of their tree neighbours), and obstacles trap a
large part of the population inside the initial quadrant.

The experiment is a three-run sweep: :func:`sweep_fig3` declares the
:class:`~repro.api.specs.RunSpec` grid, a
:class:`~repro.api.sweep.SweepRunner` executes it, :func:`rows_fig3`
turns the records into rows and :func:`format_fig3` renders them::

    rows_fig3(SweepRunner(jobs=2).run(sweep_fig3(SMOKE_SCALE)))

Pass ``trace_every`` to record the per-period coverage time series; the
runner CLI (:mod:`repro.experiments.runner`) appends it to the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api import RunRecord, RunSpec, SweepSpec
from .common import ExperimentScale, FULL_SCALE, make_scenario

__all__ = [
    "Fig3Row",
    "SCENARIOS",
    "sweep_fig3",
    "rows_fig3",
    "format_fig3",
]

#: The three scenarios of Figure 3: (label, rc, rs, with_obstacles, paper coverage).
SCENARIOS = (
    ("a", 60.0, 40.0, False, 0.745),
    ("b", 30.0, 40.0, False, 0.264),
    ("c", 60.0, 40.0, True, 0.371),
)


@dataclass(frozen=True)
class Fig3Row:
    """One scenario of Figure 3."""

    scenario: str
    communication_range: float
    sensing_range: float
    with_obstacles: bool
    coverage: float
    paper_coverage: float
    connected: bool
    average_moving_distance: float


def sweep_fig3(
    scale: ExperimentScale = FULL_SCALE,
    seed: int = 1,
    scheme_name: str = "CPVF",
    trace_every: Optional[int] = None,
    paper_coverage=None,
) -> SweepSpec:
    """The declarative Figure 3 sweep (CPVF by default).

    ``paper_coverage`` optionally remaps the per-scenario paper values
    (Figure 8 reuses this sweep with FLOOR's numbers).
    """
    runs = []
    for label, rc, rs, with_obstacles, paper in SCENARIOS:
        if paper_coverage is not None:
            paper = paper_coverage[label]
        runs.append(
            RunSpec(
                scenario=make_scenario(
                    scale,
                    communication_range=rc,
                    sensing_range=rs,
                    seed=seed,
                    layout="two-obstacle" if with_obstacles else "obstacle-free",
                ),
                scheme=scheme_name,
                trace_every=trace_every,
                tags={
                    "scenario": label,
                    "with_obstacles": with_obstacles,
                    "paper_coverage": paper,
                },
            )
        )
    return SweepSpec(name="fig3", runs=tuple(runs))


def rows_fig3(records: Sequence[RunRecord]) -> List[Fig3Row]:
    """Figure 3 rows from executed sweep records."""
    return [
        Fig3Row(
            scenario=record.tag("scenario"),
            communication_range=record.scenario.communication_range,
            sensing_range=record.scenario.sensing_range,
            with_obstacles=record.tag("with_obstacles"),
            coverage=record.coverage,
            paper_coverage=record.tag("paper_coverage"),
            connected=record.connected,
            average_moving_distance=record.average_moving_distance,
        )
        for record in records
    ]


def format_fig3(rows: List[Fig3Row], title: str = "Figure 3 (CPVF)") -> str:
    """Render the rows as an aligned text table."""
    lines = [title, "-" * len(title)]
    header = (
        f"{'case':<5s}{'rc':>6s}{'rs':>6s}{'obstacles':>11s}"
        f"{'coverage':>10s}{'paper':>8s}{'conn':>6s}{'avg move (m)':>14s}"
    )
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row.scenario:<5s}{row.communication_range:>6.0f}{row.sensing_range:>6.0f}"
            f"{str(row.with_obstacles):>11s}{100 * row.coverage:>9.1f}%"
            f"{100 * row.paper_coverage:>7.1f}%{str(row.connected):>6s}"
            f"{row.average_moving_distance:>14.1f}"
        )
    return "\n".join(lines)
