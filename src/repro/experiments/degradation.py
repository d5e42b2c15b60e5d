"""Degradation: scheme robustness under packet loss and stale state.

The paper's evaluation assumes a perfect network; this experiment opens
the network-condition axis.  A grid of loss rates (0-20% per message)
crossed with neighbor-table staleness runs CPVF, FLOOR and the
degradation-oblivious VOR baseline on the same derived-seed scenarios,
and every degraded cell is reported relative to its own scheme's
perfect-network baseline: coverage ratio, message overhead (retransmitted
traffic) and convergence.  The perfect cell (loss 0, staleness 0) runs
with no :class:`~repro.network.NetworkSpec` at all, so its records are
byte-identical to the structural reproduction.

Loss draws are per-``(seed, period, message)`` derived uniforms inside
:class:`~repro.network.NetworkModel`, never from the world's RNG, so the
sweep's records are identical whether it runs serially or sharded over
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import RunRecord, RunSpec, SweepSpec, derive_seed
from ..network import NetworkSpec
from .common import ExperimentScale, FULL_SCALE, make_scenario

__all__ = [
    "DegradationRow",
    "DEFAULT_DEGRADATION_SCHEMES",
    "DEGRADATION_LOSSES",
    "DEGRADATION_STALENESS",
    "sweep_degradation",
    "rows_degradation",
    "format_degradation",
]

#: Schemes compared under degradation (VOR ignores the network model and
#: serves as the oblivious baseline).
DEFAULT_DEGRADATION_SCHEMES = ("CPVF", "FLOOR", "VOR")

#: Per-message loss probabilities swept (0 is the perfect baseline).
DEGRADATION_LOSSES = (0.0, 0.01, 0.05, 0.1, 0.2)

#: Neighbor-table refresh intervals in periods (0 = live reads).
DEGRADATION_STALENESS = (0, 5)

#: Repetition cap: a few derived seeds per cell, like the lifecycle sweep.
_MAX_REPETITIONS = 3


def _cell_network(loss: float, staleness: int) -> Optional[NetworkSpec]:
    """The network spec of one grid cell (``None`` for the perfect cell).

    The perfect cell deliberately carries no spec at all so its records
    (and run fingerprints) coincide with the structural reproduction's.
    """
    if loss == 0.0 and staleness == 0:
        return None
    return NetworkSpec(model="unreliable", loss=loss, staleness=staleness)


@dataclass(frozen=True)
class DegradationRow:
    """One scheme's seed-averaged outcome in one (loss, staleness) cell."""

    loss: float
    staleness: int
    scheme: str
    #: Mean final coverage across repetitions.
    coverage: float
    #: Coverage relative to the same scheme's perfect-network cell.
    coverage_ratio: float
    #: Mean transmissions per run.
    messages: float
    #: Message traffic relative to the perfect-network cell (>= 1 under
    #: loss: retransmissions and timed-out attempts are still charged).
    message_overhead: float
    #: Fraction of repetitions that converged before the horizon.
    converged_fraction: float
    #: Mean convergence period over the repetitions that converged.
    mean_converged_at: float


def sweep_degradation(
    scale: ExperimentScale = FULL_SCALE,
    schemes: Sequence[str] = DEFAULT_DEGRADATION_SCHEMES,
    losses: Sequence[float] = DEGRADATION_LOSSES,
    staleness_levels: Sequence[int] = DEGRADATION_STALENESS,
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative loss x staleness degradation grid.

    Every cell of the grid reuses the same derived-seed scenarios, so the
    per-cell ratios in :func:`rows_degradation` compare paired runs.
    """
    repetitions = max(1, min(scale.repetitions, _MAX_REPETITIONS))
    scenarios = [
        make_scenario(scale, seed=derive_seed(seed, "degradation", rep))
        for rep in range(repetitions)
    ]
    runs: List[RunSpec] = []
    for staleness in staleness_levels:
        for loss in losses:
            network = _cell_network(loss, staleness)
            for rep, scenario in enumerate(scenarios):
                for scheme in schemes:
                    runs.append(
                        RunSpec(
                            scenario=scenario,
                            scheme=scheme,
                            trace_every=trace_every,
                            network=network,
                            tags={
                                "loss": loss,
                                "staleness": staleness,
                                "rep": rep,
                            },
                        )
                    )
    return SweepSpec(name="degradation", runs=tuple(runs))


def rows_degradation(records: Sequence[RunRecord]) -> List[DegradationRow]:
    """Seed-averaged degradation rows from executed sweep records."""
    order: List[Tuple[float, int, str]] = []
    groups: Dict[Tuple[float, int, str], List[RunRecord]] = {}
    for record in records:
        key = (record.tag("loss"), record.tag("staleness"), record.scheme)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)

    def _mean_coverage(key: Tuple[float, int, str]) -> float:
        group = groups[key]
        return sum(r.coverage for r in group) / len(group)

    def _mean_messages(key: Tuple[float, int, str]) -> float:
        group = groups[key]
        return sum(r.total_messages for r in group) / len(group)

    rows: List[DegradationRow] = []
    for loss, staleness, scheme in order:
        group = groups[(loss, staleness, scheme)]
        baseline_key = (0.0, 0, scheme)
        base_coverage = (
            _mean_coverage(baseline_key) if baseline_key in groups else 0.0
        )
        base_messages = (
            _mean_messages(baseline_key) if baseline_key in groups else 0.0
        )
        coverage = _mean_coverage((loss, staleness, scheme))
        messages = _mean_messages((loss, staleness, scheme))
        converged = [
            r.converged_at for r in group if r.converged_at is not None
        ]
        rows.append(
            DegradationRow(
                loss=loss,
                staleness=staleness,
                scheme=scheme,
                coverage=coverage,
                coverage_ratio=(
                    coverage / base_coverage if base_coverage > 0 else 0.0
                ),
                messages=messages,
                message_overhead=(
                    messages / base_messages if base_messages > 0 else 0.0
                ),
                converged_fraction=len(converged) / len(group),
                mean_converged_at=(
                    sum(converged) / len(converged)
                    if converged
                    else float("nan")
                ),
            )
        )
    return rows


def format_degradation(rows: List[DegradationRow]) -> str:
    """Render the degradation grid as a per-staleness table."""
    lines = [
        "Degradation (coverage under packet loss and stale state)",
        "-" * 56,
    ]
    staleness_levels: List[int] = []
    for row in rows:
        if row.staleness not in staleness_levels:
            staleness_levels.append(row.staleness)
    for staleness in staleness_levels:
        subset = [r for r in rows if r.staleness == staleness]
        label = (
            "live neighbor tables"
            if staleness <= 1
            else f"neighbor tables refreshed every {staleness} periods"
        )
        lines.append(f"staleness {staleness} ({label})")
        lines.append(
            f"  {'loss':>5s} {'scheme':<8s} {'coverage':>9s} "
            f"{'vs perfect':>10s} {'messages':>9s} {'overhead':>9s} "
            f"{'converged':>9s}"
        )
        for row in subset:
            conv = (
                f"{row.mean_converged_at:>7.0f}p"
                if row.mean_converged_at == row.mean_converged_at
                else f"{'-':>8s}"
            )
            lines.append(
                f"  {100 * row.loss:>4.0f}% {row.scheme:<8s} "
                f"{100 * row.coverage:>8.1f}% {100 * row.coverage_ratio:>9.1f}% "
                f"{row.messages:>9.0f} {row.message_overhead:>8.2f}x {conv}"
            )
    return "\n".join(lines)
