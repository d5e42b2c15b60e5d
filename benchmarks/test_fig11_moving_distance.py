"""Figure 11 benchmark: average moving distance of the six schemes.

Shape to reproduce: FLOOR moves far less than VOR/Minimax (whose explosion
dispersal dominates) and less than CPVF (which oscillates); the Hungarian
bound for FLOOR's own layout lower-bounds FLOOR's distance.
"""

import pytest

from repro.api import SweepRunner
from repro.experiments.fig11 import format_fig11, rows_fig11, sweep_fig11


@pytest.mark.benchmark(group="fig11")
def test_fig11_moving_distance(benchmark, sweep_scale, run_once):
    sweep = sweep_fig11(sweep_scale, vd_rounds=5, seed=1)
    rows = rows_fig11(run_once(benchmark, SweepRunner(jobs=1).run, sweep))
    print()
    print(format_fig11(rows))
    by_scheme = {r.scheme: r.average_moving_distance for r in rows}

    # CPVF's oscillation costs it more movement than FLOOR.
    assert by_scheme["CPVF"] > by_scheme["FLOOR"]
    # The Hungarian matching to FLOOR's own layout is a lower bound on what
    # FLOOR actually travelled.
    assert by_scheme["FLOOR-Hungarian"] <= by_scheme["FLOOR"] + 1e-6
    # All six schemes are present with non-negative distances.
    assert len(by_scheme) == 6
    assert all(d >= 0.0 for d in by_scheme.values())
