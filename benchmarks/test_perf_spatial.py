"""Spatial-subsystem perf benchmarks: seed vs fast paths at n in {100, 500, 1000}.

Each test times a hot query's fast path (see
:mod:`repro.experiments.perfbench`, which asserts fast-path/brute parity
before timing) against the seed algorithm kept in ``tests.oracles``
(which asserts seed/library parity before timing).  In the default suite
the speed assertions are a loose sanity floor (the fast path must not
lose to the seed) so a loaded machine cannot flake the tier-1 run; set
``REPRO_PERF_STRICT=1`` to enforce the real targets locally.  The
committed perf trajectory lives in ``BENCH_perf.json`` (regenerate with
``python benchmarks/run_perf.py``; its ``seed_ms`` columns are frozen).
"""

import os

import pytest

from repro.experiments.perfbench import (
    measure_coverage,
    measure_cpvf_period,
    measure_neighbor_table,
)
from tests.oracles import (
    seed_coverage_ms,
    seed_cpvf_period_ms,
    seed_neighbor_table_ms,
)

SIZES = (100, 500, 1000)

#: Loose default floor vs strict local target for n >= 500.
_MIN_SPEEDUP = 2.5 if os.environ.get("REPRO_PERF_STRICT") == "1" else 1.2


def _report(name, n, seed_ms, fast_ms):
    speedup = seed_ms / fast_ms if fast_ms > 0 else float("inf")
    print(
        f"\n{name} n={n}: seed={seed_ms:.2f} ms "
        f"fast={fast_ms:.2f} ms ({speedup:.1f}x)"
    )
    return speedup


@pytest.mark.perf
@pytest.mark.parametrize("n", SIZES)
def test_perf_neighbor_table(n):
    seed_ms = seed_neighbor_table_ms(n, repeats=5)
    fast_ms = measure_neighbor_table(n, repeats=5)["fast_ms"]
    speedup = _report("neighbor_table", n, seed_ms, fast_ms)
    if n >= 500:
        assert speedup >= _MIN_SPEEDUP


@pytest.mark.perf
@pytest.mark.parametrize("n", SIZES)
def test_perf_cpvf_period(n):
    seed_ms = seed_cpvf_period_ms(n, periods=4)
    fast_ms = measure_cpvf_period(n, periods=4)["fast_ms"]
    speedup = _report("cpvf_period", n, seed_ms, fast_ms)
    if n >= 500:
        assert speedup >= _MIN_SPEEDUP


@pytest.mark.perf
@pytest.mark.parametrize("n", SIZES)
def test_perf_coverage(n):
    seed_ms = seed_coverage_ms(n, rounds=3)
    fast_ms = measure_coverage(n, rounds=3)["fast_ms"]
    speedup = _report("coverage", n, seed_ms, fast_ms)
    if n >= 500:
        assert speedup >= _MIN_SPEEDUP
