"""Shared infrastructure for the experiment reproductions.

Every experiment module in this package reproduces one table or figure of
the paper.  They all share the canonical setting of Section 4.3 / 6:

* field: 1000 x 1000 m, base station at the origin;
* sensors: 240, initially clustered uniformly at random in the lower-left
  500 x 500 m quadrant;
* kinematics: maximum speed 2 m/s, period 1 s, horizon 750 s;
* ranges: ``rc`` and ``rs`` between 30 and 60 m.

A full-scale run of a single scheme takes on the order of a minute of CPU
time, and several experiments sweep dozens of configurations, so every
experiment accepts an :class:`ExperimentScale` that shrinks the field,
population and horizon proportionally.  ``SMOKE_SCALE`` (used by the test
suite) and ``BENCH_SCALE`` (used by the pytest-benchmark harness) keep the
geometry ratios of the paper while finishing quickly; ``FULL_SCALE``
reproduces the paper's exact parameters.

The experiment modules themselves are declarative: each builds a
:class:`~repro.api.specs.SweepSpec` (via :func:`make_scenario` and the
scheme registry) and executes it through the process-sharded
:class:`~repro.api.sweep.SweepRunner`.  Scripts and tests that want one
world build it the same way: ``make_scenario(scale, ...).build_world()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..api import RunRecord, ScenarioSpec

__all__ = [
    "ExperimentScale",
    "FULL_SCALE",
    "BENCH_SCALE",
    "SMOKE_SCALE",
    "make_scenario",
    "format_coverage_traces",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs applied to the paper's canonical setting."""

    #: Side length of the square field in metres.
    field_size: float = 1000.0
    #: Default number of sensors (experiments may sweep around it).
    sensor_count: int = 240
    #: Simulation horizon in seconds.
    duration: float = 750.0
    #: Coverage-grid resolution in metres.
    coverage_resolution: float = 10.0
    #: Number of repetitions for experiments that aggregate over runs.
    repetitions: int = 300

    def scaled_count(self, full_scale_count: int) -> int:
        """Scale a sensor count from the paper proportionally to this scale."""
        factor = self.sensor_count / 240.0
        return max(4, int(round(full_scale_count * factor)))


#: The paper's exact parameters.
FULL_SCALE = ExperimentScale()

#: Laptop-friendly scale used by the pytest-benchmark harness.
BENCH_SCALE = ExperimentScale(
    field_size=500.0,
    sensor_count=70,
    duration=250.0,
    coverage_resolution=12.5,
    repetitions=8,
)

#: Very small scale used by the test suite for end-to-end smoke tests.
SMOKE_SCALE = ExperimentScale(
    field_size=300.0,
    sensor_count=24,
    duration=80.0,
    coverage_resolution=15.0,
    repetitions=2,
)


def make_scenario(
    scale: ExperimentScale,
    communication_range: float = 60.0,
    sensing_range: float = 40.0,
    sensor_count: Optional[int] = None,
    seed: int = 1,
    layout: str = "obstacle-free",
    **overrides,
) -> ScenarioSpec:
    """A :class:`ScenarioSpec` on the canonical setting at this scale.

    ``layout`` names the field (``"two-obstacle"`` for the paper's
    obstacle setting); ``overrides`` pass through to the spec
    (``layout_params``, ``placement``, ``invitation_ttl``,
    ``oscillation_delta``, ...).
    """
    return ScenarioSpec(
        field_size=scale.field_size,
        layout=layout,
        sensor_count=(
            sensor_count if sensor_count is not None else scale.sensor_count
        ),
        communication_range=communication_range,
        sensing_range=sensing_range,
        duration=scale.duration,
        coverage_resolution=scale.coverage_resolution,
        seed=seed,
        **overrides,
    )


def format_coverage_traces(
    records: Sequence[RunRecord],
    label: Callable[[RunRecord], str],
    max_points: int = 12,
) -> str:
    """Render the per-period coverage time series of traced records.

    Returns an empty string when no record carries a trace (i.e. the sweep
    ran without ``trace_every``), so formatters can append it blindly.
    """
    traced = [r for r in records if r.trace]
    if not traced:
        return ""
    lines = ["coverage over time (traced periods)"]
    for record in traced:
        points = list(record.trace)
        if len(points) > max_points:
            stride = max(1, len(points) // max_points)
            sampled = points[::stride]
            if sampled[-1] is not points[-1]:
                sampled.append(points[-1])
            points = sampled
        series = " ".join(
            f"{p.time:.0f}s:{100 * p.coverage:.1f}%" for p in points
        )
        lines.append(f"  {label(record):<12s} {series}")
    return "\n".join(lines)
