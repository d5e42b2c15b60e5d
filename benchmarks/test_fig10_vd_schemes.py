"""Figure 10 benchmark: FLOOR vs VOR vs Minimax as ``rc/rs`` varies.

Shape to reproduce: the VD-based schemes leave the network disconnected for
small ``rc/rs`` and only build correct Voronoi cells once ``rc/rs`` is
large, while FLOOR stays connected throughout; with a large ``rc/rs`` the
VD schemes become competitive in coverage.
"""

import pytest

from repro.api import SweepRunner
from repro.experiments.fig10 import format_fig10, rows_fig10, sweep_fig10


@pytest.mark.benchmark(group="fig10")
def test_fig10_vd_schemes(benchmark, sweep_scale, run_once):
    sweep = sweep_fig10(sweep_scale, ratios=[1.0, 2.0, 4.0], vd_rounds=5, seed=1)
    rows = rows_fig10(run_once(benchmark, SweepRunner(jobs=1).run, sweep))
    print()
    print(format_fig10(rows))

    def row(scheme, ratio):
        return next(r for r in rows if r.scheme == scheme and r.ratio == ratio)

    # FLOOR rows exist for every ratio and report sane coverage.
    assert all(0.0 <= r.coverage <= 1.0 for r in rows)
    # The VD schemes' Voronoi cells are more often correct at rc/rs = 4 than
    # at rc/rs = 1 (the "Incorrect VD" annotation of the paper).
    vor_small = row("VOR", 1.0)
    vor_large = row("VOR", 4.0)
    assert (not vor_small.all_voronoi_cells_correct) or vor_large.all_voronoi_cells_correct
    # Coverage of the VD schemes does not degrade when rc/rs grows.
    assert vor_large.coverage >= vor_small.coverage - 0.05
