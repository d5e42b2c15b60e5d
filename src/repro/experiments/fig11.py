"""Figure 11: average moving distance of six schemes.

The paper compares the average per-sensor moving distance, starting from the
clustered initial distribution, of:

1. CPVF;
2. FLOOR;
3. VOR  (charged the minimum-cost explosion plus 10 VD rounds);
4. Minimax (likewise);
5. "OPT-Hungarian": the minimum total distance required to reach the OPT
   strip pattern, computed by the Hungarian algorithm;
6. "FLOOR-Hungarian": the minimum total distance required to reach FLOOR's
   own final layout — the lower bound FLOOR is measured against.

The qualitative claims being reproduced: FLOOR moves far less than VOR and
Minimax (whose explosion dominates); CPVF needs roughly twice FLOOR's
distance because of oscillation; and FLOOR sits a modest factor (the paper
reports 15.6-38 %) above the Hungarian bound for its own layout.

Five of the six schemes are one sweep (CPVF, FLOOR, VOR, Minimax and the
analytic OPT-Hungarian all run through the scheme registry); the
FLOOR-Hungarian bound is derived afterwards from the FLOOR record's final
positions (``keep_positions=True``) and the scenario's deterministic
initial placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api import RunRecord, RunSpec, SweepSpec
from ..api.schemes import hungarian_bound
from ..geometry import Vec2
from .common import ExperimentScale, FULL_SCALE, make_scenario

__all__ = ["Fig11Row", "sweep_fig11", "rows_fig11", "format_fig11"]


@dataclass(frozen=True)
class Fig11Row:
    """Average moving distance of one scheme."""

    scheme: str
    average_moving_distance: float
    coverage: Optional[float]


def sweep_fig11(
    scale: ExperimentScale = FULL_SCALE,
    communication_range: float = 60.0,
    sensing_range: float = 40.0,
    vd_rounds: int = 10,
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative Figure 11 sweep (five registered schemes)."""
    scenario = make_scenario(
        scale,
        communication_range=communication_range,
        sensing_range=sensing_range,
        seed=seed,
    )
    vd_params = {"rounds": vd_rounds}
    runs = (
        RunSpec(scenario=scenario, scheme="CPVF", trace_every=trace_every),
        # FLOOR keeps its final layout so the FLOOR-Hungarian lower bound
        # can be derived from the record afterwards.
        RunSpec(
            scenario=scenario,
            scheme="FLOOR",
            trace_every=trace_every,
            keep_positions=True,
        ),
        RunSpec(scenario=scenario, scheme="VOR", scheme_params=vd_params),
        RunSpec(scenario=scenario, scheme="Minimax", scheme_params=vd_params),
        RunSpec(scenario=scenario, scheme="OPT-Hungarian"),
    )
    return SweepSpec(name="fig11", runs=runs)


def rows_fig11(records: Sequence[RunRecord]) -> List[Fig11Row]:
    """Figure 11 rows, with the derived FLOOR-Hungarian bound appended."""
    rows = [
        Fig11Row(
            scheme=record.scheme,
            average_moving_distance=record.average_moving_distance,
            coverage=record.coverage,
        )
        for record in records
    ]
    floor_record = next(
        (r for r in records if r.scheme == "FLOOR" and r.final_positions), None
    )
    if floor_record is not None:
        scenario = floor_record.scenario
        layout = [Vec2(x, y) for x, y in floor_record.final_positions]
        average, coverage = hungarian_bound(scenario, layout)
        rows.append(
            Fig11Row(
                scheme="FLOOR-Hungarian",
                average_moving_distance=average,
                coverage=coverage,
            )
        )
    return rows


def format_fig11(rows: List[Fig11Row]) -> str:
    """Render the comparison as an aligned text table."""
    lines = ["Figure 11 (average moving distance)", "-" * 36]
    lines.append(f"{'scheme':<16s} {'avg distance (m)':>17s} {'coverage':>10s}")
    for row in rows:
        coverage = f"{100 * row.coverage:.1f}%" if row.coverage is not None else "-"
        lines.append(
            f"{row.scheme:<16s} {row.average_moving_distance:>17.1f} {coverage:>10s}"
        )
    return "\n".join(lines)
