"""Figure 8 benchmark: FLOOR coverage in the three canonical scenarios.

Paper values (full scale): (a) 78.8 %, (b) 46.2 %, (c) 72.5 %.  The shape
to reproduce: FLOOR degrades gracefully when ``rc < rs`` and expands past
obstacles, beating CPVF clearly in scenarios (b) and (c).
"""

import pytest

from repro.api import SweepRunner
from repro.experiments.fig3 import format_fig3, rows_fig3, sweep_fig3
from repro.experiments.fig8 import sweep_fig8


@pytest.mark.benchmark(group="fig8")
def test_fig8_floor_scenarios(benchmark, bench_scale, run_once):
    records = run_once(benchmark, SweepRunner(jobs=1).run, sweep_fig8(bench_scale, seed=1))
    rows = rows_fig3(records)
    print()
    print(format_fig3(rows, title="Figure 8 (FLOOR)"))
    by_case = {r.scenario: r for r in rows}
    assert all(0.0 < r.coverage <= 1.0 for r in rows)
    # FLOOR's small-rc scenario keeps a usable fraction of its large-rc
    # coverage (the paper's 46.2 % vs 78.8 %), unlike CPVF's collapse.
    assert by_case["b"].coverage >= 0.4 * by_case["a"].coverage


@pytest.mark.benchmark(group="fig8")
def test_fig8_floor_beats_cpvf_at_small_rc(benchmark, bench_scale, run_once):
    """The headline Fig 3(b) vs Fig 8(b) comparison."""

    def run_pair():
        runner = SweepRunner(jobs=1)
        floor_rows = rows_fig3(runner.run(sweep_fig8(bench_scale, seed=1)))
        cpvf_rows = rows_fig3(runner.run(sweep_fig3(bench_scale, seed=1)))
        return floor_rows, cpvf_rows

    floor_rows, cpvf_rows = run_once(benchmark, run_pair)
    floor_b = next(r for r in floor_rows if r.scenario == "b")
    cpvf_b = next(r for r in cpvf_rows if r.scenario == "b")
    print()
    print(f"scenario (b): FLOOR {floor_b.coverage:.1%} vs CPVF {cpvf_b.coverage:.1%}")
    assert floor_b.coverage > cpvf_b.coverage
