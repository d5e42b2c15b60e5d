"""Gallery: CPVF vs FLOOR vs VOR across the curated scenario suite.

The paper's figures fix one or two fields; the gallery opens the workload
space by sweeping the schemes over every scenario in
:data:`repro.scenarios.DEFAULT_SUITE` — mazes, multi-room floorplans,
spiral corridors and random clutter under hotspot, perimeter, lattice and
multi-cluster starts.  One run per scenario x scheme, executed like every
other experiment through the process-sharded
:class:`~repro.api.sweep.SweepRunner`, so records are identical whether
the sweep runs serially or sharded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..api import RunRecord, RunSpec, SweepSpec
from ..scenarios import DEFAULT_SUITE
from .common import ExperimentScale, FULL_SCALE

__all__ = [
    "GalleryRow",
    "DEFAULT_GALLERY_SCHEMES",
    "sweep_gallery",
    "rows_gallery",
    "format_gallery",
]

#: Schemes compared across the suite (VOR is the connectivity-ignorant
#: baseline, as in Figs 10/11).
DEFAULT_GALLERY_SCHEMES = ("CPVF", "FLOOR", "VOR")


@dataclass(frozen=True)
class GalleryRow:
    """One scheme's outcome on one suite scenario."""

    scenario: str
    layout: str
    placement: str
    scheme: str
    coverage: float
    average_moving_distance: float
    total_messages: int
    connected: bool
    #: Uncharged correction distance summed over the run's sensors.
    uncharged: float


def sweep_gallery(
    scale: ExperimentScale = FULL_SCALE,
    schemes: Sequence[str] = DEFAULT_GALLERY_SCHEMES,
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative gallery sweep (optionally a named scenario subset).

    Suite entries pin their own scenario seeds so every gallery run draws
    the exact curated field/placement; ``seed`` shifts all of them
    together (``seed=1`` leaves the curated scenarios untouched).
    """
    runs: List[RunSpec] = []
    for entry, scenario in DEFAULT_SUITE.specs(scale, names=scenarios):
        if seed != 1:
            scenario = scenario.replace(seed=scenario.seed + seed - 1)
        for scheme in schemes:
            runs.append(
                RunSpec(
                    scenario=scenario,
                    scheme=scheme,
                    trace_every=trace_every,
                    tags={
                        "scenario": entry.name,
                        "layout": entry.layout,
                        "placement": entry.placement,
                    },
                )
            )
    return SweepSpec(name="gallery", runs=tuple(runs))


def rows_gallery(records: Sequence[RunRecord]) -> List[GalleryRow]:
    """Gallery rows from executed sweep records."""
    return [
        GalleryRow(
            scenario=record.tag("scenario"),
            layout=record.tag("layout"),
            placement=record.tag("placement"),
            scheme=record.scheme,
            coverage=record.coverage,
            average_moving_distance=record.average_moving_distance,
            total_messages=record.total_messages,
            connected=record.connected,
            uncharged=record.extra("uncharged_m", 0.0),
        )
        for record in records
    ]


def format_gallery(rows: List[GalleryRow]) -> str:
    """Render the gallery as a per-scenario comparison table."""
    lines = [
        "Gallery (schemes across the curated scenario suite)",
        "-" * 51,
    ]
    scenarios: List[str] = []
    for row in rows:
        if row.scenario not in scenarios:
            scenarios.append(row.scenario)
    for name in scenarios:
        subset = [r for r in rows if r.scenario == name]
        first = subset[0]
        lines.append(f"{name} ({first.layout} + {first.placement})")
        lines.append(
            f"  {'scheme':<8s} {'coverage':>9s} {'avg dist':>9s} "
            f"{'messages':>9s} {'connected':>9s} {'uncharged':>10s}"
        )
        for row in subset:
            lines.append(
                f"  {row.scheme:<8s} {100 * row.coverage:>8.1f}% "
                f"{row.average_moving_distance:>8.1f}m "
                f"{row.total_messages:>9d} {'yes' if row.connected else 'no':>9s} "
                f"{row.uncharged:>9.1f}m"
            )
    return "\n".join(lines)
