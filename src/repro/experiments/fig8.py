"""Figure 8: FLOOR layouts and coverage in the Figure 3 scenarios.

The paper's coverage numbers for FLOOR with 240 sensors after 750 s:

* (a) ``rc = 60 m``, ``rs = 40 m``, obstacle-free field  -> 78.8 %
* (b) ``rc = 30 m``, ``rs = 40 m``, obstacle-free field  -> 46.2 %
* (c) ``rc = 60 m``, ``rs = 40 m``, two-obstacle field   -> 72.5 %

The qualitative claims being reproduced: FLOOR beats CPVF in every
scenario, degrades far more gracefully when ``rc < rs`` (floor separation
removes the vertical sensing overlap) and has no difficulty expanding
coverage past obstacles.

Declaratively this is the Figure 3 sweep with the FLOOR scheme and FLOOR's
paper values; its records read back through Figure 3's
:func:`~repro.experiments.fig3.rows_fig3` and
:func:`~repro.experiments.fig3.format_fig3` (titled ``"Figure 8 (FLOOR)"``).
"""

from __future__ import annotations

from typing import Optional

from ..api import SweepSpec
from .common import ExperimentScale, FULL_SCALE
from .fig3 import sweep_fig3

__all__ = ["FIG8_PAPER_COVERAGE", "sweep_fig8"]

#: Paper coverage values for FLOOR, keyed by scenario label.
FIG8_PAPER_COVERAGE = {"a": 0.788, "b": 0.462, "c": 0.725}


def sweep_fig8(
    scale: ExperimentScale = FULL_SCALE,
    seed: int = 1,
    trace_every: Optional[int] = None,
) -> SweepSpec:
    """The declarative Figure 8 sweep: the Fig 3 scenarios under FLOOR."""
    base = sweep_fig3(
        scale,
        seed=seed,
        scheme_name="FLOOR",
        trace_every=trace_every,
        paper_coverage=FIG8_PAPER_COVERAGE,
    )
    return SweepSpec(name="fig8", runs=base.runs)
