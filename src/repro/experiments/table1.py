"""Table 1: FLOOR's protocol message overhead.

The paper counts the protocol messages FLOOR transmits during a 750-second
deployment for network sizes ``N`` of 120, 160, 200 and 240, with the
invitation random-walk TTL set to 0.1, 0.2, 0.3 and 0.4 times ``N``, in the
obstacle-free and two-obstacle environments.  The reported quantities are
the total number of transmissions (in thousands) and the per-node average;
overhead grows roughly linearly with the TTL and mildly with ``N``, and the
per-node load stays within a few messages per second.

The sweep is the full ``environment x N x TTL`` grid of FLOOR runs; the
TTL is part of each scenario spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api import RunRecord, RunSpec, SweepSpec
from .common import ExperimentScale, FULL_SCALE, make_scenario

__all__ = [
    "Table1Row",
    "DEFAULT_TTL_FRACTIONS",
    "DEFAULT_SENSOR_COUNTS",
    "sweep_table1",
    "rows_table1",
    "format_table1",
]

#: TTL values as fractions of the network size, as in the paper.
DEFAULT_TTL_FRACTIONS = (0.1, 0.2, 0.3, 0.4)

#: Network sizes swept by the table (paper scale).
DEFAULT_SENSOR_COUNTS = (120, 160, 200, 240)


@dataclass(frozen=True)
class Table1Row:
    """Message overhead of one (environment, N, TTL) cell of the table."""

    environment: str
    sensor_count: int
    ttl_fraction: float
    ttl: int
    total_messages: int
    messages_per_node: float


def sweep_table1(
    scale: ExperimentScale = FULL_SCALE,
    sensor_counts: Sequence[int] | None = None,
    ttl_fractions: Sequence[float] | None = None,
    environments: Sequence[str] = ("non-obstacle", "two-obstacle"),
    communication_range: float = 60.0,
    sensing_range: float = 40.0,
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative message-overhead sweep."""
    counts = list(sensor_counts or DEFAULT_SENSOR_COUNTS)
    fractions = list(ttl_fractions or DEFAULT_TTL_FRACTIONS)
    runs = []
    for environment in environments:
        layout = (
            "two-obstacle" if environment == "two-obstacle" else "obstacle-free"
        )
        for paper_count in counts:
            count = scale.scaled_count(paper_count)
            for fraction in fractions:
                ttl = max(1, int(round(fraction * count)))
                runs.append(
                    RunSpec(
                        scenario=make_scenario(
                            scale,
                            communication_range=communication_range,
                            sensing_range=sensing_range,
                            sensor_count=count,
                            seed=seed,
                            layout=layout,
                            invitation_ttl=ttl,
                        ),
                        scheme="FLOOR",
                        trace_every=trace_every,
                        tags={
                            "environment": environment,
                            "paper_count": paper_count,
                            "ttl_fraction": fraction,
                        },
                    )
                )
    return SweepSpec(name="table1", runs=tuple(runs))


def rows_table1(records: Sequence[RunRecord]) -> List[Table1Row]:
    """Table 1 rows from executed sweep records."""
    return [
        Table1Row(
            environment=record.tag("environment"),
            sensor_count=record.tag("paper_count"),
            ttl_fraction=record.tag("ttl_fraction"),
            ttl=record.scenario.invitation_ttl,
            total_messages=record.total_messages,
            messages_per_node=record.messages_per_node(),
        )
        for record in records
    ]


def format_table1(rows: List[Table1Row]) -> str:
    """Render the table in the paper's layout (totals in thousands)."""
    lines = ["Table 1 (FLOOR protocol messages, totals x1000 / per node x1000)", "-" * 64]
    environments = sorted({r.environment for r in rows})
    fractions = sorted({r.ttl_fraction for r in rows})
    header = f"{'':>8s}" + "".join(f"{f'TTL={f:.1f}N':>18s}" for f in fractions)
    for environment in environments:
        lines.append(f"{environment} environment")
        lines.append(header)
        counts = sorted({r.sensor_count for r in rows if r.environment == environment})
        for count in counts:
            cells = []
            for fraction in fractions:
                match = [
                    r
                    for r in rows
                    if r.environment == environment
                    and r.sensor_count == count
                    and r.ttl_fraction == fraction
                ]
                if match:
                    row = match[0]
                    cells.append(
                        f"{row.total_messages / 1000:>10.0f} ({row.messages_per_node / 1000:.1f})"
                    )
                else:
                    cells.append(f"{'-':>18s}")
            lines.append(f"N={count:<6d}" + "".join(f"{c:>18s}" for c in cells))
    return "\n".join(lines)
