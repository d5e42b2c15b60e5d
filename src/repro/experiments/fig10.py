"""Figure 10: coverage of FLOOR, VOR and Minimax versus ``rc / rs``.

With ``rs = 60 m`` and ``rc / rs`` swept from 0.8 to 4, the paper observes:

* VOR and Minimax leave the network disconnected whenever ``rc / rs <= 2``;
* they only construct all-correct Voronoi cells for ``rc / rs >= 3``
  (VOR) / ``>= 4`` (Minimax), and their coverage suffers below that;
* once ``rc / rs`` is large (>= 2.5) the VD schemes perform well and can
  slightly exceed FLOOR because they ignore the connectivity constraint.

The VD baselines run through the same registry as FLOOR: their adapter
handles the explosion dispersal and the Voronoi rounds, and reports the
cell-correctness check as a record extra (``check_voronoi``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Sequence

from ..api import RunRecord, RunSpec, SweepSpec
from .common import ExperimentScale, FULL_SCALE, make_scenario

__all__ = [
    "Fig10Row",
    "DEFAULT_RATIOS",
    "sweep_fig10",
    "rows_fig10",
    "format_fig10",
]

#: ``rc / rs`` ratios swept by the figure.
DEFAULT_RATIOS = (0.8, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)


@dataclass(frozen=True)
class Fig10Row:
    """Result of one scheme at one ``rc / rs`` ratio."""

    scheme: str
    ratio: float
    communication_range: float
    sensing_range: float
    coverage: float
    connected: bool
    all_voronoi_cells_correct: bool


def sweep_fig10(
    scale: ExperimentScale = FULL_SCALE,
    ratios: Sequence[float] | None = None,
    sensing_range: float = 60.0,
    vd_rounds: int = 10,
    seed: int = 1,
    include_floor: bool = True,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative Figure 10 sweep."""
    runs = []
    for ratio in list(ratios or DEFAULT_RATIOS):
        scenario = make_scenario(
            scale,
            communication_range=ratio * sensing_range,
            sensing_range=sensing_range,
            seed=seed,
        )
        if include_floor:
            runs.append(
                RunSpec(
                    scenario=scenario,
                    scheme="FLOOR",
                    trace_every=trace_every,
                    tags={"ratio": ratio},
                )
            )
        for vd_scheme in ("VOR", "Minimax"):
            runs.append(
                RunSpec(
                    scenario=scenario,
                    scheme=vd_scheme,
                    scheme_params={"rounds": vd_rounds, "check_voronoi": True},
                    tags={"ratio": ratio},
                )
            )
    return SweepSpec(name="fig10", runs=tuple(runs))


def rows_fig10(records: Sequence[RunRecord]) -> List[Fig10Row]:
    """Figure 10 rows from executed sweep records."""
    return [
        Fig10Row(
            scheme=record.scheme,
            ratio=record.tag("ratio"),
            communication_range=record.scenario.communication_range,
            sensing_range=record.scenario.sensing_range,
            coverage=record.coverage,
            connected=record.connected,
            all_voronoi_cells_correct=record.extra(
                "all_voronoi_cells_correct", True
            ),
        )
        for record in records
    ]


def format_fig10(rows: List[Fig10Row]) -> str:
    """Render the sweep as an aligned text table."""
    lines = ["Figure 10 (coverage vs. rc/rs, rs = 60 m)", "-" * 42]
    lines.append(
        f"{'rc/rs':>6s} {'scheme':<9s} {'coverage':>9s} {'connected':>10s} {'correct VD':>11s}"
    )
    for row in sorted(rows, key=attrgetter("ratio", "scheme")):
        lines.append(
            f"{row.ratio:>6.1f} {row.scheme:<9s} {100 * row.coverage:>8.1f}%"
            f" {str(row.connected):>10s} {str(row.all_voronoi_cells_correct):>11s}"
        )
    return "\n".join(lines)
