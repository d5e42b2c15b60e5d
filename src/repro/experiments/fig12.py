"""Figure 12: effect of oscillation avoidance on CPVF.

The paper sweeps the oscillation-avoidance factor ``delta`` for the
one-step and two-step avoidance rules and shows the trade-off: smaller
``delta`` (a larger cancellation threshold ``V*T / delta``) reduces the
moving distance but also the coverage, because some of the cancelled steps
would actually have pushed the coverage frontier forward.

The avoidance configuration lives on the scenario
(:attr:`~repro.api.scenario.ScenarioSpec.oscillation_delta` /
``oscillation_mode``), so the sweep is a plain grid of CPVF runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api import RunRecord, RunSpec, SweepSpec
from .common import ExperimentScale, FULL_SCALE, make_scenario

__all__ = [
    "Fig12Row",
    "DEFAULT_DELTAS",
    "sweep_fig12",
    "rows_fig12",
    "format_fig12",
]

#: Oscillation-avoidance factors swept by the figure (None = no avoidance).
DEFAULT_DELTAS: Sequence[Optional[float]] = (None, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class Fig12Row:
    """CPVF with one avoidance configuration."""

    mode: str
    delta: Optional[float]
    average_moving_distance: float
    coverage: float


def sweep_fig12(
    scale: ExperimentScale = FULL_SCALE,
    deltas: Sequence[Optional[float]] | None = None,
    modes: Sequence[str] = ("one-step", "two-step"),
    communication_range: float = 60.0,
    sensing_range: float = 40.0,
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative oscillation-avoidance sweep."""
    deltas = list(DEFAULT_DELTAS if deltas is None else deltas)
    runs = []
    for mode in modes:
        for delta in deltas:
            runs.append(
                RunSpec(
                    scenario=make_scenario(
                        scale,
                        communication_range=communication_range,
                        sensing_range=sensing_range,
                        seed=seed,
                        oscillation_delta=delta,
                        oscillation_mode=mode,
                    ),
                    scheme="CPVF",
                    trace_every=trace_every,
                    tags={"mode": mode if delta is not None else "none"},
                )
            )
        # The "no avoidance" row is identical for both modes; only keep one.
        if None in deltas:
            deltas = [d for d in deltas if d is not None]
    return SweepSpec(name="fig12", runs=tuple(runs))


def rows_fig12(records: Sequence[RunRecord]) -> List[Fig12Row]:
    """Figure 12 rows from executed sweep records."""
    return [
        Fig12Row(
            mode=record.tag("mode"),
            delta=record.scenario.oscillation_delta,
            average_moving_distance=record.average_moving_distance,
            coverage=record.coverage,
        )
        for record in records
    ]


def format_fig12(rows: List[Fig12Row]) -> str:
    """Render the sweep as an aligned text table."""
    lines = ["Figure 12 (oscillation avoidance for CPVF)", "-" * 43]
    lines.append(
        f"{'mode':<10s} {'delta':>7s} {'avg distance (m)':>17s} {'coverage':>10s}"
    )
    for row in rows:
        delta = f"{row.delta:.1f}" if row.delta is not None else "off"
        lines.append(
            f"{row.mode:<10s} {delta:>7s} {row.average_moving_distance:>17.1f}"
            f" {100 * row.coverage:>9.1f}%"
        )
    return "\n".join(lines)
