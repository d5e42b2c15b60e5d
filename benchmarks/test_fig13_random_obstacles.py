"""Figure 13 benchmark: CPVF vs FLOOR under random rectangular obstacles.

Shape to reproduce: over repeated random-obstacle deployments FLOOR's mean
coverage is higher and its mean moving distance lower than CPVF's (the
paper reports +20 coverage points and less than half the distance over 300
runs; the benchmark uses a handful of runs).
"""

import pytest

from repro.api import SweepRunner
from repro.experiments.fig13 import format_fig13, summary_fig13, sweep_fig13


@pytest.mark.benchmark(group="fig13")
def test_fig13_random_obstacles(benchmark, sweep_scale, run_once):
    repetitions = 2 if sweep_scale.repetitions <= 10 else sweep_scale.repetitions
    sweep = sweep_fig13(sweep_scale, repetitions=repetitions, seed=1)
    summary = summary_fig13(run_once(benchmark, SweepRunner(jobs=1).run, sweep))
    print()
    print(format_fig13(summary, cdf_points=4))

    assert len(summary.runs) == 2 * repetitions
    # FLOOR's moving distance advantage is robust even at reduced scale.
    assert summary.mean_distance("FLOOR") <= summary.mean_distance("CPVF")
    # Both schemes produce valid CDFs.
    assert summary.coverage_cdf("CPVF").values
    assert summary.coverage_cdf("FLOOR").values
