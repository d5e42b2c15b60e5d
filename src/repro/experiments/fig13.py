"""Figure 13: CPVF versus FLOOR under random rectangular obstacles.

The paper runs 300 random-obstacle deployments (1 to 4 rectangular
obstacles of random size that never partition the field) and reports the
cumulative distribution functions of coverage and average moving distance
for both schemes.  The headline findings: FLOOR's mean coverage is more
than 20 percentage points higher than CPVF's, and its mean moving distance
is less than half of CPVF's.

Each repetition is one scenario: the random obstacle layout is part of the
scenario spec (the ``random-obstacles`` registered layout, seeded by a
deterministic per-repetition spawn of the base seed), so repetitions are
fully independent and the sweep shards across processes with records
identical to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api import RunRecord, RunSpec, SweepSpec, derive_seed
from ..metrics import EmpiricalCDF
from .common import ExperimentScale, FULL_SCALE, make_scenario

__all__ = [
    "Fig13Run",
    "Fig13Summary",
    "sweep_fig13",
    "summary_fig13",
    "format_fig13",
]


@dataclass(frozen=True)
class Fig13Run:
    """One random-obstacle deployment of one scheme."""

    run_index: int
    scheme: str
    obstacle_count: int
    coverage: float
    average_moving_distance: float
    #: Uncharged correction distance summed over the run's sensors.
    uncharged: float


@dataclass
class Fig13Summary:
    """Aggregate of all random-obstacle runs."""

    runs: List[Fig13Run]

    def _values(self, scheme: str, attribute: str) -> List[float]:
        return [getattr(r, attribute) for r in self.runs if r.scheme == scheme]

    def coverage_cdf(self, scheme: str) -> EmpiricalCDF:
        """Empirical CDF of coverage for one scheme."""
        return EmpiricalCDF(self._values(scheme, "coverage"))

    def distance_cdf(self, scheme: str) -> EmpiricalCDF:
        """Empirical CDF of average moving distance for one scheme."""
        return EmpiricalCDF(self._values(scheme, "average_moving_distance"))

    def mean_coverage(self, scheme: str) -> float:
        """Mean coverage of one scheme over all runs."""
        values = self._values(scheme, "coverage")
        return sum(values) / len(values) if values else 0.0

    def mean_distance(self, scheme: str) -> float:
        """Mean moving distance of one scheme over all runs."""
        values = self._values(scheme, "average_moving_distance")
        return sum(values) / len(values) if values else 0.0

    def mean_uncharged(self, scheme: str) -> float:
        """Mean uncharged correction distance of one scheme per run."""
        values = self._values(scheme, "uncharged")
        return sum(values) / len(values) if values else 0.0


def sweep_fig13(
    scale: ExperimentScale = FULL_SCALE,
    repetitions: int | None = None,
    communication_range: float = 60.0,
    sensing_range: float = 40.0,
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative random-obstacle sweep.

    ``repetitions`` defaults to the scale's value (300 at full scale).
    Every repetition gets an independent run seed and obstacle-layout seed
    spawned deterministically from ``seed``.
    """
    reps = repetitions if repetitions is not None else scale.repetitions
    runs = []
    for rep in range(reps):
        scenario = make_scenario(
            scale,
            communication_range=communication_range,
            sensing_range=sensing_range,
            seed=derive_seed(seed, rep),
            layout="random-obstacles",
            layout_params={
                "seed": derive_seed(seed, rep, "obstacles"),
                "min_side": 0.08 * scale.field_size,
                "max_side": 0.4 * scale.field_size,
                "keep_clear_radius": max(
                    communication_range, 0.06 * scale.field_size
                ),
            },
        )
        for scheme in ("CPVF", "FLOOR"):
            runs.append(
                RunSpec(
                    scenario=scenario,
                    scheme=scheme,
                    trace_every=trace_every,
                    tags={"rep": rep},
                )
            )
    return SweepSpec(name="fig13", runs=tuple(runs))


def summary_fig13(records: Sequence[RunRecord]) -> Fig13Summary:
    """The Figure 13 aggregate from executed sweep records."""
    return Fig13Summary(
        runs=[
            Fig13Run(
                run_index=record.tag("rep"),
                scheme=record.scheme,
                obstacle_count=record.extra("obstacle_count", 0),
                coverage=record.coverage,
                average_moving_distance=record.average_moving_distance,
                uncharged=record.extra("uncharged_m", 0.0),
            )
            for record in records
        ]
    )


def format_fig13(summary: Fig13Summary, cdf_points: int = 6) -> str:
    """Render the comparison, including sampled CDFs, as text."""
    lines = ["Figure 13 (random obstacles: CPVF vs FLOOR)", "-" * 44]
    for scheme in ("CPVF", "FLOOR"):
        lines.append(
            f"{scheme}: mean coverage = {100 * summary.mean_coverage(scheme):.1f}%, "
            f"mean avg distance = {summary.mean_distance(scheme):.1f} m, "
            f"mean uncharged = {summary.mean_uncharged(scheme):.1f} m/run"
        )
    for label, cdf_getter in (
        ("coverage CDF", Fig13Summary.coverage_cdf),
        ("distance CDF", Fig13Summary.distance_cdf),
    ):
        lines.append(label)
        for scheme in ("CPVF", "FLOOR"):
            cdf = cdf_getter(summary, scheme)
            points = ", ".join(
                f"{value:.2f}:{prob:.2f}" for value, prob in cdf.series(cdf_points)
            )
            lines.append(f"  {scheme:<6s} {points}")
    return "\n".join(lines)
