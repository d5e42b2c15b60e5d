"""Lifecycle: scheme robustness under sensor churn and field changes.

The paper evaluates CPVF and FLOOR on static populations; this experiment
opens the fault axis.  Four curated event scripts — a mass mid-run failure,
two interior-cascade kill waves, a failure-plus-reinforcement cycle and an
obstacle that slams shut and later clears — run against CPVF, FLOOR and the
connectivity-ignorant VOR baseline.  Every run carries its scenario's event
timeline declaratively (:attr:`~repro.api.scenario.ScenarioSpec.events`),
so records are identical whether the sweep runs serially or sharded, and
each record reports one :class:`~repro.metrics.recovery.EventOutcome` per
fired event: time-to-recover, extra moving distance and the per-event
message burst.

Scripts are seed-averaged over a small number of repetitions (derived
seeds, as everywhere else) because a single churn draw can land on an
atypically cheap or catastrophic victim set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api import RunRecord, RunSpec, SweepSpec, derive_seed
from ..sim import (
    LifecycleEvent,
    obstacle_appear,
    obstacle_clear,
    sensor_failure,
    sensor_join,
)
from .common import ExperimentScale, FULL_SCALE, make_scenario

__all__ = [
    "LifecycleRow",
    "DEFAULT_LIFECYCLE_SCHEMES",
    "LIFECYCLE_SCRIPTS",
    "lifecycle_events",
    "sweep_lifecycle",
    "rows_lifecycle",
    "format_lifecycle",
]

#: Schemes compared under churn (VOR is the connectivity-ignorant baseline).
DEFAULT_LIFECYCLE_SCHEMES = ("CPVF", "FLOOR", "VOR")

#: Repetition cap: churn scripts average over a few derived seeds, not the
#: hundreds used by the paper's aggregate figures.
_MAX_REPETITIONS = 4


def _at(scale: ExperimentScale, fraction: float) -> int:
    """Event period at a fraction of the (scaled) simulation horizon."""
    return max(1, int(round(fraction * scale.duration)))


def _script_mass_failure(scale: ExperimentScale) -> Tuple[LifecycleEvent, ...]:
    """One 20% kill on the open field at 40% of the horizon.

    The acceptance scenario: both connectivity-aware schemes should climb
    back to >= 90% of their pre-event coverage by the end of the run.
    """
    return (sensor_failure(at_period=_at(scale, 0.4), fraction=0.2),)


def _script_interior_cascade(
    scale: ExperimentScale,
) -> Tuple[LifecycleEvent, ...]:
    """Two waves preferring interior (tree-relaying) victims.

    Killing relay sensors orphans whole subtrees, exercising the tree
    repair's re-attachment search rather than just leaf pruning.
    """
    return (
        sensor_failure(
            at_period=_at(scale, 0.3), fraction=0.12, selection="interior"
        ),
        sensor_failure(
            at_period=_at(scale, 0.6), fraction=0.12, selection="interior"
        ),
    )


def _script_reinforcements(
    scale: ExperimentScale,
) -> Tuple[LifecycleEvent, ...]:
    """A 25% kill followed by fresh sensors staged near the base station."""
    joins = max(2, int(round(0.15 * scale.sensor_count)))
    return (
        sensor_failure(at_period=_at(scale, 0.35), fraction=0.25),
        sensor_join(
            at_period=_at(scale, 0.55),
            count=joins,
            x=0.0,
            y=0.0,
            radius=0.2 * scale.field_size,
        ),
    )


def _script_door_slam(scale: ExperimentScale) -> Tuple[LifecycleEvent, ...]:
    """A wall band slams across the field mid-run and clears later.

    The band spans the upper 80% of the field height, leaving a door at the
    bottom; sensors swallowed by it are displaced and every BUG2 path
    planned against the old field is invalidated.  On the obstacle-free
    layout the appearing band is obstacle index 0, which the clearing
    event removes.
    """
    size = scale.field_size
    return (
        obstacle_appear(
            at_period=_at(scale, 0.3),
            xmin=0.38 * size,
            ymin=0.2 * size,
            xmax=0.46 * size,
            ymax=size,
        ),
        obstacle_clear(at_period=_at(scale, 0.7), index=0),
    )


#: Curated event scripts: name -> (scale -> event timeline).
LIFECYCLE_SCRIPTS: Dict[
    str, Callable[[ExperimentScale], Tuple[LifecycleEvent, ...]]
] = {
    "mass-failure": _script_mass_failure,
    "interior-cascade": _script_interior_cascade,
    "reinforcements": _script_reinforcements,
    "door-slam": _script_door_slam,
}


def lifecycle_events(
    script: str, scale: ExperimentScale = FULL_SCALE
) -> Tuple[LifecycleEvent, ...]:
    """The event timeline of one named script at a scale."""
    if script not in LIFECYCLE_SCRIPTS:
        raise KeyError(
            f"unknown lifecycle script {script!r}; "
            f"choose from {sorted(LIFECYCLE_SCRIPTS)}"
        )
    return LIFECYCLE_SCRIPTS[script](scale)


@dataclass(frozen=True)
class LifecycleRow:
    """One scheme's seed-averaged outcome on one event script."""

    script: str
    scheme: str
    #: Mean final coverage across repetitions.
    coverage: float
    #: Mean best-recovery ratio across every event of every repetition.
    recovery_ratio: float
    #: Fraction of events that reached the recovery target before the end.
    recovered_fraction: float
    #: Mean periods-to-recover over the events that did recover.
    mean_time_to_recover: float
    #: Mean extra moving distance charged per event (metres).
    extra_distance: float
    #: Mean post-event message burst per event (transmissions).
    message_burst: float
    #: Events fired per repetition.
    events_per_run: int


def sweep_lifecycle(
    scale: ExperimentScale = FULL_SCALE,
    schemes: Sequence[str] = DEFAULT_LIFECYCLE_SCHEMES,
    scripts: Optional[Sequence[str]] = None,
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative lifecycle sweep (optionally a named script subset)."""
    names = list(scripts) if scripts is not None else sorted(LIFECYCLE_SCRIPTS)
    repetitions = max(1, min(scale.repetitions, _MAX_REPETITIONS))
    runs: List[RunSpec] = []
    for script in names:
        events = lifecycle_events(script, scale)
        for rep in range(repetitions):
            scenario = make_scenario(
                scale, seed=derive_seed(seed, script, rep), events=events
            )
            for scheme in schemes:
                runs.append(
                    RunSpec(
                        scenario=scenario,
                        scheme=scheme,
                        trace_every=trace_every,
                        tags={"script": script, "rep": rep},
                    )
                )
    return SweepSpec(name="lifecycle", runs=tuple(runs))


def rows_lifecycle(records: Sequence[RunRecord]) -> List[LifecycleRow]:
    """Seed-averaged lifecycle rows from executed sweep records."""
    order: List[Tuple[str, str]] = []
    groups: Dict[Tuple[str, str], List[RunRecord]] = {}
    for record in records:
        key = (record.tag("script"), record.scheme)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)

    rows: List[LifecycleRow] = []
    for script, scheme in order:
        group = groups[(script, scheme)]
        outcomes = [outcome for record in group for outcome in record.events]
        recovered = [
            outcome for outcome in outcomes if outcome.time_to_recover is not None
        ]
        count = len(outcomes)
        rows.append(
            LifecycleRow(
                script=script,
                scheme=scheme,
                coverage=sum(r.coverage for r in group) / len(group),
                recovery_ratio=(
                    sum(o.recovery_ratio for o in outcomes) / count if count else 0.0
                ),
                recovered_fraction=len(recovered) / count if count else 0.0,
                mean_time_to_recover=(
                    sum(o.time_to_recover for o in recovered) / len(recovered)
                    if recovered
                    else float("nan")
                ),
                extra_distance=(
                    sum(o.extra_distance for o in outcomes) / count if count else 0.0
                ),
                message_burst=(
                    sum(o.message_burst for o in outcomes) / count if count else 0.0
                ),
                events_per_run=max((len(r.events) for r in group), default=0),
            )
        )
    return rows


def format_lifecycle(rows: List[LifecycleRow]) -> str:
    """Render the lifecycle comparison as a per-script table."""
    lines = [
        "Lifecycle (recovery from sensor churn and field changes)",
        "-" * 56,
    ]
    scripts: List[str] = []
    for row in rows:
        if row.script not in scripts:
            scripts.append(row.script)
    for script in scripts:
        subset = [r for r in rows if r.script == script]
        lines.append(f"{script} ({subset[0].events_per_run} events/run)")
        lines.append(
            f"  {'scheme':<8s} {'coverage':>9s} {'recovery':>9s} "
            f"{'recovered':>9s} {'t-recover':>9s} {'extra m':>8s} {'burst':>8s}"
        )
        for row in subset:
            ttr = (
                f"{row.mean_time_to_recover:>8.1f}p"
                if row.mean_time_to_recover == row.mean_time_to_recover
                else f"{'-':>9s}"
            )
            lines.append(
                f"  {row.scheme:<8s} {100 * row.coverage:>8.1f}% "
                f"{100 * row.recovery_ratio:>8.1f}% "
                f"{100 * row.recovered_fraction:>8.0f}% {ttr} "
                f"{row.extra_distance:>7.1f}m {row.message_burst:>8.0f}"
            )
    return "\n".join(lines)
