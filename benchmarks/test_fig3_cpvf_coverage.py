"""Figure 3 benchmark: CPVF coverage in the three canonical scenarios.

Paper values (full scale): (a) 74.5 %, (b) 26.4 %, (c) 37.1 %.  The shape
to reproduce: coverage collapses when ``rc < rs`` and obstacles trap the
population; absolute values at reduced scale differ.
"""

import pytest

from repro.api import SweepRunner
from repro.experiments.fig3 import format_fig3, rows_fig3, sweep_fig3


@pytest.mark.benchmark(group="fig3")
def test_fig3_cpvf_scenarios(benchmark, bench_scale, run_once):
    records = run_once(benchmark, SweepRunner(jobs=1).run, sweep_fig3(bench_scale, seed=1))
    rows = rows_fig3(records)
    print()
    print(format_fig3(rows))
    by_case = {r.scenario: r for r in rows}
    # Scenario (b) (small rc) must be the worst of the three.
    assert by_case["b"].coverage < by_case["a"].coverage
    # All runs produce sane coverage values.
    assert all(0.0 < r.coverage <= 1.0 for r in rows)
