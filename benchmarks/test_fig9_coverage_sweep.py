"""Figure 9 benchmark: coverage of CPVF / FLOOR / OPT vs number of sensors.

Shape to reproduce: FLOOR >= CPVF across the sweep (most markedly at small
``rc/rs``), OPT upper-bounds both, and coverage grows with the number of
sensors.
"""

import pytest

from repro.api import SweepRunner
from repro.experiments.fig9 import format_fig9, rows_fig9, sweep_fig9


@pytest.mark.benchmark(group="fig9")
def test_fig9_coverage_sweep(benchmark, sweep_scale, run_once):
    sweep = sweep_fig9(
        sweep_scale,
        sensor_counts=[120, 240],
        range_pairs=[(20.0, 60.0), (60.0, 60.0)],
        seed=1,
    )
    rows = rows_fig9(run_once(benchmark, SweepRunner(jobs=1).run, sweep))
    print()
    print(format_fig9(rows))

    def coverage(scheme, count, rc):
        return next(
            r.coverage
            for r in rows
            if r.scheme == scheme and r.sensor_count == count and r.communication_range == rc
        )

    # More sensors never hurt the OPT pattern.
    assert coverage("OPT", 240, 60.0) >= coverage("OPT", 120, 60.0) - 1e-9
    # FLOOR handles the small-rc regime better than CPVF at the largest count.
    assert coverage("FLOOR", 240, 20.0) >= coverage("CPVF", 240, 20.0) - 0.02
    # OPT is the upper baseline for the large-rc configuration.
    assert coverage("OPT", 240, 60.0) >= coverage("FLOOR", 240, 60.0) - 0.05
