"""Figure 9: coverage of CPVF, FLOOR and OPT versus the number of sensors.

The paper sweeps the sensor count (120 to 300) for several ``(rc, rs)``
combinations and shows that:

* FLOOR outperforms CPVF everywhere, most markedly when ``rc / rs`` is
  small (e.g. with ``rc = 20``, ``rs = 60`` CPVF reaches less than half of
  FLOOR's coverage);
* FLOOR approaches the centralised OPT pattern as ``rc`` and the sensor
  count grow (within a few percentage points for ``rc = rs = 60`` and more
  than 200 sensors);
* beyond roughly 300 sensors coverage saturates.

The sweep is declared by :func:`sweep_fig9` — one run per
``(rc, rs) x N x scheme`` point, with OPT riding along as a registered
analytic scheme — and executes through the process-sharded
:class:`~repro.api.sweep.SweepRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from ..api import RunRecord, RunSpec, SweepSpec
from .common import ExperimentScale, FULL_SCALE, make_scenario

__all__ = [
    "Fig9Row",
    "DEFAULT_RANGE_PAIRS",
    "DEFAULT_SENSOR_COUNTS",
    "sweep_fig9",
    "rows_fig9",
    "format_fig9",
]

#: ``(rc, rs)`` pairs swept in the figure.
DEFAULT_RANGE_PAIRS: Tuple[Tuple[float, float], ...] = (
    (20.0, 60.0),
    (40.0, 60.0),
    (60.0, 60.0),
)

#: Sensor counts swept in the figure (paper scale).
DEFAULT_SENSOR_COUNTS: Tuple[int, ...] = (120, 160, 200, 240, 300)


@dataclass(frozen=True)
class Fig9Row:
    """Coverage of one scheme at one sweep point."""

    scheme: str
    sensor_count: int
    communication_range: float
    sensing_range: float
    coverage: float


def sweep_fig9(
    scale: ExperimentScale = FULL_SCALE,
    sensor_counts: Sequence[int] | None = None,
    range_pairs: Sequence[Tuple[float, float]] | None = None,
    schemes: Sequence[str] = ("CPVF", "FLOOR"),
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative Figure 9 sweep.

    Sensor counts are interpreted at paper scale and shrunk proportionally
    for smaller :class:`ExperimentScale` settings, so the relative sweep
    shape is preserved.  The OPT pattern is appended at every sweep point
    as an analytic (no-simulation) scheme.
    """
    counts = list(sensor_counts or DEFAULT_SENSOR_COUNTS)
    pairs = list(range_pairs or DEFAULT_RANGE_PAIRS)
    runs = []
    for rc, rs in pairs:
        for paper_count in counts:
            scenario = make_scenario(
                scale,
                communication_range=rc,
                sensing_range=rs,
                sensor_count=scale.scaled_count(paper_count),
                seed=seed,
            )
            for scheme in (*schemes, "OPT"):
                runs.append(
                    RunSpec(
                        scenario=scenario,
                        scheme=scheme,
                        trace_every=trace_every if scheme != "OPT" else None,
                        tags={"paper_count": paper_count},
                    )
                )
    return SweepSpec(name="fig9", runs=tuple(runs))


def rows_fig9(records: Sequence[RunRecord]) -> List[Fig9Row]:
    """Figure 9 rows from executed sweep records."""
    return [
        Fig9Row(
            scheme=record.scheme,
            sensor_count=record.tag("paper_count"),
            communication_range=record.scenario.communication_range,
            sensing_range=record.scenario.sensing_range,
            coverage=record.coverage,
        )
        for record in records
    ]


def format_fig9(rows: List[Fig9Row]) -> str:
    """Render the sweep as an aligned text table grouped by range pair."""
    lines = ["Figure 9 (coverage vs. number of sensors)", "-" * 42]
    pairs = sorted({(r.communication_range, r.sensing_range) for r in rows})
    for rc, rs in pairs:
        lines.append(f"rc = {rc:.0f} m, rs = {rs:.0f} m")
        lines.append(f"  {'N':>5s} {'scheme':<8s} {'coverage':>9s}")
        subset = [
            r
            for r in rows
            if r.communication_range == rc and r.sensing_range == rs
        ]
        for row in sorted(subset, key=attrgetter("sensor_count", "scheme")):
            lines.append(
                f"  {row.sensor_count:>5d} {row.scheme:<8s} {100 * row.coverage:>8.1f}%"
            )
    return "\n".join(lines)
