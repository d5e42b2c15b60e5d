"""Figure 12 benchmark: oscillation avoidance for CPVF.

Shape to reproduce: enabling avoidance (smaller ``delta``) reduces the
moving distance, at some cost in coverage.
"""

import pytest

from repro.api import SweepRunner
from repro.experiments.fig12 import format_fig12, rows_fig12, sweep_fig12


@pytest.mark.benchmark(group="fig12")
def test_fig12_oscillation_avoidance(benchmark, sweep_scale, run_once):
    sweep = sweep_fig12(
        sweep_scale, deltas=[None, 2.0, 8.0], modes=["one-step", "two-step"], seed=1
    )
    rows = rows_fig12(run_once(benchmark, SweepRunner(jobs=1).run, sweep))
    print()
    print(format_fig12(rows))

    plain = next(r for r in rows if r.delta is None)
    one_step_aggressive = next(
        r for r in rows if r.mode == "one-step" and r.delta == 2.0
    )
    # Aggressive avoidance reduces the moving distance.
    assert one_step_aggressive.average_moving_distance <= plain.average_moving_distance + 1e-6
    # Every configuration still produces usable coverage.
    assert all(r.coverage > 0.0 for r in rows)
