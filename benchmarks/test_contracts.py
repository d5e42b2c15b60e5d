"""The contract gate (``benchmarks/contracts.py``) and the frozen seed columns.

Every contract is driven with injected measurements and a temporary
bench file: a passing case must exit 0, a doctored one exit 1, and a
missing committed row skips (exit 0).  The last tests pin that
``run_perf.py`` carries the committed ``seed_ms`` forward unchanged.
"""

import copy
import json

import pytest

from benchmarks import contracts, run_perf

_PERIOD = {"untraced_ms": [10.2, 10.0], "traced_ms": 10.5}
_PROFILED = {
    "fingerprint_stable": True,
    "phases": ["engine.scheme_step", "engine.trace"],
    "periods": 10,
    "json_roundtrip": True,
    "plain_untraced": True,
    "same_result": True,
}
_REPORT = {"lines": 11, "returncode": 0, "stdout": "phase breakdown\n", "stderr": ""}
_DEGRADED = {
    "CPVF": {"perfect": 0.8, "degraded": 0.78, "dropped": 100, "retries": 80,
             "timeouts": 2},
    "FLOOR": {"perfect": 0.5, "degraded": 0.5, "dropped": 90, "retries": 60,
              "timeouts": 1},
}
_CHURN = {
    scheme: {"pre": 0.6, "post": 0.5, "best": 0.6, "recovery": 1.0}
    for scheme in ("CPVF", "FLOOR", "VOR")
}
_DEDUP = {"computed": 3, "inflight_hits": 1, "records_equal": True}
_KILL = {"partial": 2, "store": None, "computed": 4, "store_hits": 2,
         "records_equal": True}
_GC = {"entries": 6, "removed_files": 2, "kept_entries": 6, "surviving": 6}
_OBSTACLE_CPVF = {
    "wall_ms": 250.0,
    "counters": {
        "neighbors.table_builds": 90,
        "geometry.polygon_tests": 9000,
        "neighbors.snapshots": 100,
    },
}
_OBSTACLE_FLOOR = {
    "wall_ms": 500.0,
    "counters": {
        "floor.expansion_recomputed": 300,
        "floor.expansion_recomputed.iflg": 290,
        "floor.coverage_queries": 2900,
        "floor.expansion_checked": 1200,
        "neighbors.table_builds": 2,
        "geometry.polygon_tests": 2500,
        "neighbors.snapshots": 100,
    },
}
_CHURN_CPVF = {
    "wall_ms": 700.0,
    "counters": {"cpvf.subtree_walks": 2000, "coverage.disks": 4000},
}
_CHURN_FLOOR = {
    "wall_ms": 400.0,
    "counters": {
        "floor.expansion_recomputed": 500,
        "floor.expansion_recomputed.field": 30,
        "floor.rounds_searched": 120,
        "floor.rounds_reused": 130,
        "floor.expansion_checked": 1500,
        "coverage.disks": 3000,
    },
}
_LIFECYCLE = [
    {"scheme": "CPVF", "run_ms": 600.0},
    {"scheme": "FLOOR", "run_ms": 1200.0},
]

#: A passing measurement for every measurement name.
GOOD = {
    "cpvf_period": _PERIOD,
    "obstacle_cpvf": _OBSTACLE_CPVF,
    "obstacle_floor": _OBSTACLE_FLOOR,
    "churn_cpvf": _CHURN_CPVF,
    "churn_floor": _CHURN_FLOOR,
    "lifecycle_recovery": _LIFECYCLE,
    "profiled_run": _PROFILED,
    "report_cli": _REPORT,
    "degraded_smoke": _DEGRADED,
    "churn_smoke": _CHURN,
    "service_dedup": _DEDUP,
    "service_kill_resume": _KILL,
    "service_gc": _GC,
}

#: A committed file every entry passes against.
BENCH = {
    "cpvf_period": [{"n": 100, "fast_ms": 1.0}, {"n": 500, "fast_ms": 10.0}],
    "telemetry_overhead": [{"n": 2000, "overhead_pct": 0.2}],
    "obstacle_cpvf": [{
        "n": 70,
        "wall_ms": 100.0,
        "counters": {
            "neighbors.table_builds": 90,
            "geometry.polygon_tests": 9000,
            "neighbors.snapshots": 101,
        },
    }],
    "obstacle_floor": [{
        "n": 70,
        "wall_ms": 200.0,
        "counters": {
            "floor.expansion_recomputed": 300,
            "floor.expansion_recomputed.iflg": 295,
            "floor.coverage_queries": 3000,
            "floor.expansion_checked": 1200,
            "neighbors.table_builds": 2,
            "geometry.polygon_tests": 2600,
            "neighbors.snapshots": 100,
        },
    }],
    "churn_cpvf": [{
        "n": 70,
        "wall_ms": 300.0,
        "counters": {"cpvf.subtree_walks": 2000, "coverage.disks": 4000},
    }],
    "churn_floor": [{
        "n": 70,
        "wall_ms": 200.0,
        "counters": {
            "floor.expansion_recomputed": 500,
            "floor.expansion_recomputed.field": 30,
            "floor.rounds_searched": 120,
            "floor.rounds_reused": 130,
            "floor.expansion_checked": 1500,
            "coverage.disks": 3000,
        },
    }],
    "lifecycle_recovery": [
        {"scheme": "CPVF", "n": 70, "run_ms": 300.0},
        {"scheme": "FLOOR", "n": 70, "run_ms": 500.0},
    ],
    "degraded_coverage": [
        {"scheme": "CPVF", "coverage_ratio": 0.93},
        {"scheme": "FLOOR", "coverage_ratio": 0.97},
    ],
}


def _with(base, path, value):
    """A deep copy of ``base`` with ``base[path[0]][path[1]]... = value``."""
    doctored = copy.deepcopy(base)
    target = doctored
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doctored


#: contract -> (path into GOOD, value) or ("bench", path into BENCH, value):
#: one doctoring that must make exactly that contract fail.
DOCTORED = {
    "perf.cpvf_period": ("bench", ("cpvf_period", 1, "fast_ms"), 3.0),
    "perf.obstacle_cpvf": (("obstacle_cpvf", "wall_ms"), 301.0),
    "perf.obstacle_floor": (("obstacle_floor", "wall_ms"), 601.0),
    "floor.expansion_recomputes": (
        ("obstacle_floor", "counters", "floor.expansion_recomputed"), 301,
    ),
    "floor.coverage_queries": (
        ("obstacle_floor", "counters", "floor.coverage_queries"), 3001,
    ),
    "floor.expansion_checked": (
        ("obstacle_floor", "counters", "floor.expansion_checked"), 1201,
    ),
    "neighbors.table_builds": (
        ("obstacle_floor", "counters", "neighbors.table_builds"), 3,
    ),
    "neighbors.cpvf_table_builds": (
        ("obstacle_cpvf", "counters", "neighbors.table_builds"), 91,
    ),
    "geometry.cpvf_polygon_tests": (
        ("obstacle_cpvf", "counters", "geometry.polygon_tests"), 9001,
    ),
    "geometry.floor_polygon_tests": (
        ("obstacle_floor", "counters", "geometry.polygon_tests"), 2601,
    ),
    "neighbors.cpvf_snapshots": (
        ("obstacle_cpvf", "counters", "neighbors.snapshots"), 102,
    ),
    "neighbors.floor_snapshots": (
        ("obstacle_floor", "counters", "neighbors.snapshots"), 101,
    ),
    "perf.churn_cpvf": (("churn_cpvf", "wall_ms"), 901.0),
    "cpvf.subtree_walks": (
        ("churn_cpvf", "counters", "cpvf.subtree_walks"), 2001,
    ),
    "coverage.cpvf_churn_disks": (
        ("churn_cpvf", "counters", "coverage.disks"), 4001,
    ),
    "perf.churn_floor": (("churn_floor", "wall_ms"), 601.0),
    "floor.churn_recomputes": (
        ("churn_floor", "counters", "floor.expansion_recomputed.field"), 31,
    ),
    "floor.rounds_searched": (
        ("churn_floor", "counters", "floor.rounds_searched"), 121,
    ),
    "floor.churn_expansion_checked": (
        ("churn_floor", "counters", "floor.expansion_checked"), 1501,
    ),
    "coverage.floor_churn_disks": (
        ("churn_floor", "counters", "coverage.disks"), 3001,
    ),
    "perf.lifecycle_recovery": (("lifecycle_recovery", 1, "run_ms"), 1501.0),
    "obs.roundtrip": (("profiled_run", "json_roundtrip"), False),
    "obs.report_cli": (("report_cli", "returncode"), 1),
    "obs.committed_overhead": (
        "bench", ("telemetry_overhead", 0, "overhead_pct"), 5.5,
    ),
    "obs.fresh_overhead": (("cpvf_period", "traced_ms"), 31.0),
    "network.degraded_smoke": (("degraded_smoke", "FLOOR", "dropped"), 0),
    "network.bench_degraded": (
        "bench", ("degraded_coverage", 1, "coverage_ratio"), 0.84,
    ),
    "lifecycle.churn_recovery": (("churn_smoke", "VOR", "best"), 0.5),
    "service.dedup": (("service_dedup", "computed"), 4),
    "service.kill_resume": (("service_kill_resume", "partial"), 6),
    "service.gc": (("service_gc", "removed_files"), 1),
}


@pytest.fixture
def run(tmp_path, monkeypatch):
    """``run(name, bench=, injected=, bench_file=)`` -> exit code."""
    path = tmp_path / "bench.json"
    monkeypatch.setattr(contracts, "BENCH_PATH", path)

    def _run(name, bench=BENCH, injected=GOOD, bench_file=True):
        if bench_file:
            path.write_text(json.dumps(bench))
        return contracts.main(["--only", name], injected=copy.deepcopy(injected))

    return _run


def test_every_contract_has_a_doctored_case():
    assert set(DOCTORED) == {c.name for c in contracts.CONTRACTS}


@pytest.mark.parametrize("name", sorted(DOCTORED))
def test_contract_passes_on_good_inputs(run, name):
    assert run(name) == 0


@pytest.mark.parametrize("name", sorted(DOCTORED))
def test_doctored_input_fails_contract(run, name):
    doctoring = DOCTORED[name]
    if doctoring[0] == "bench":
        _, path, value = doctoring
        code = run(name, bench=_with(BENCH, path, value))
    else:
        path, value = doctoring
        code = run(name, injected=_with(GOOD, path, value))
    assert code == 1


def test_degraded_smoke_fails_on_low_retention(run):
    injected = _with(GOOD, ("degraded_smoke", "CPVF", "degraded"), 0.6)
    assert run("network.degraded_smoke", injected=injected) == 1


@pytest.mark.parametrize(
    "name", ["network.degraded_smoke", "lifecycle.churn_recovery"]
)
def test_crashed_scheme_fails(run, name):
    measure = next(c.measure for c in contracts.CONTRACTS if c.name == name)
    injected = _with(GOOD, (measure, "CPVF"), {"error": "RuntimeError()"})
    assert run(name, injected=injected) == 1


def test_period_budget_checks_the_first_untraced_window(run):
    # One window over budget fails even when the other is well within it.
    injected = _with(GOOD, ("cpvf_period", "untraced_ms"), [31.0, 10.0])
    assert run("perf.cpvf_period", injected=injected) == 1
    injected = _with(GOOD, ("cpvf_period", "untraced_ms"), [29.0, 31.0])
    assert run("perf.cpvf_period", injected=injected) == 0


def test_fresh_overhead_uses_the_best_untraced_window(run):
    # Budget 3 x min(untraced) = 30 ms, not 3 x 20 ms.
    injected = _with(GOOD, ("cpvf_period", "untraced_ms"), [20.0, 10.0])
    injected["cpvf_period"]["traced_ms"] = 31.0
    bench = {"cpvf_period": []}
    assert run("obs.fresh_overhead", bench=bench, injected=injected) == 1


def test_lifecycle_recovery_budgets_every_scheme(run):
    # CPVF over its own 3 x 300 ms budget fails even though FLOOR's
    # 1500 ms budget would cover it.
    injected = _with(GOOD, ("lifecycle_recovery", 0, "run_ms"), 901.0)
    assert run("perf.lifecycle_recovery", injected=injected) == 1
    injected = _with(GOOD, ("lifecycle_recovery",), _LIFECYCLE[:1])
    assert run("perf.lifecycle_recovery", injected=injected) == 1
    # Fresh rows pair with committed rows by scheme, not by position.
    injected = _with(GOOD, ("lifecycle_recovery",), _LIFECYCLE[::-1])
    assert run("perf.lifecycle_recovery", injected=injected) == 0


_BUDGETED = sorted(name for name in DOCTORED if name.startswith("perf."))


@pytest.mark.parametrize("name", _BUDGETED)
def test_every_perf_budget_reads_the_one_factor(run, monkeypatch, name):
    # The good inputs sit between 1x and 3x of their committed values, so
    # they pass at the shared factor and fail once it drops to 1.
    assert run(name) == 0
    monkeypatch.setattr(contracts, "BUDGET_FACTOR", 1.0)
    assert run(name) == 1


def test_expansion_recomputes_checks_each_committed_part(run):
    # Any recompute counter over its committed value fails; coverage
    # queries are not bounded.
    injected = _with(
        GOOD, ("obstacle_floor", "counters", "floor.expansion_recomputed.iflg"), 296
    )
    assert run("floor.expansion_recomputes", injected=injected) == 1
    injected = _with(
        GOOD, ("obstacle_floor", "counters", "floor.expansion_recomputed"), 12
    )
    assert run("floor.expansion_recomputes", injected=injected) == 0


def test_churn_floor_counter_gates_are_separate(run):
    # More searched rounds fail only the round gate; more recomputations
    # fail only the recompute gate; reused rounds are not bounded.
    more_rounds = _with(GOOD, ("churn_floor", "counters", "floor.rounds_searched"), 250)
    assert run("floor.rounds_searched", injected=more_rounds) == 1
    assert run("floor.churn_recomputes", injected=more_rounds) == 0
    more_parts = _with(
        GOOD, ("churn_floor", "counters", "floor.expansion_recomputed"), 900
    )
    assert run("floor.churn_recomputes", injected=more_parts) == 1
    assert run("floor.rounds_searched", injected=more_parts) == 0
    fewer_reused = _with(GOOD, ("churn_floor", "counters", "floor.rounds_reused"), 0)
    assert run("floor.rounds_searched", injected=fewer_reused) == 0


def test_table_builds_fail_without_a_committed_count(run):
    # A committed row that predates the counter cannot pass vacuously.
    counters = dict(BENCH["obstacle_floor"][0]["counters"])
    del counters["neighbors.table_builds"]
    bench = _with(BENCH, ("obstacle_floor", 0, "counters"), counters)
    assert run("neighbors.table_builds", bench=bench) == 1
    assert run("floor.expansion_recomputes", bench=bench) == 0


def test_cpvf_table_builds_fail_without_a_committed_count(run):
    # A committed obstacle_cpvf row with no counters (the row predating
    # them) fails instead of passing vacuously, and only this contract.
    row = dict(BENCH["obstacle_cpvf"][0])
    row["counters"] = {}
    bench = _with(BENCH, ("obstacle_cpvf", 0), row)
    assert run("neighbors.cpvf_table_builds", bench=bench) == 1
    assert run("perf.obstacle_cpvf", bench=bench) == 0


def test_cpvf_table_builds_read_the_cpvf_row(run):
    # The CPVF bound is the obstacle_cpvf row's count, not FLOOR's.
    injected = _with(GOOD, ("obstacle_floor", "counters", "neighbors.table_builds"), 50)
    assert run("neighbors.cpvf_table_builds", injected=injected) == 0
    assert run("neighbors.table_builds", injected=injected) == 1


def test_crash_inside_a_check_fails(run):
    injected = dict(GOOD, cpvf_period={"traced_ms": 1.0})
    assert run("perf.cpvf_period", injected=injected) == 1


_SKIPPING = [
    c.name for c in contracts.CONTRACTS if c.committed and c.skip_if_missing
]


@pytest.mark.parametrize("name", _SKIPPING)
def test_missing_committed_row_skips(run, name, capsys):
    # The doctored measurements would fail: a skip must not look at them.
    bench = {"cpvf_period": [{"n": 100, "fast_ms": 1.0}]}
    failing = {key: {} for key in GOOD}
    assert run(name, bench=bench, injected=failing) == 0
    assert f"{name} SKIP" in capsys.readouterr().out


@pytest.mark.parametrize("name", _SKIPPING)
def test_missing_bench_file_skips(run, name):
    assert run(name, bench_file=False, injected={}) == 0


def test_fresh_overhead_runs_without_committed_row(run):
    bench = {"cpvf_period": []}
    assert run("obs.fresh_overhead", bench=bench) == 0
    injected = _with(GOOD, ("cpvf_period", "traced_ms"), 31.0)
    assert (
        run("obs.fresh_overhead", bench=bench, injected=injected)
        == 1
    )


def test_unknown_contract_is_an_error(run):
    with pytest.raises(SystemExit):
        run("perf.nonexistent")


# ----------------------------------------------------------------------
# Frozen seed columns
# ----------------------------------------------------------------------
def test_carry_seed_keeps_committed_value_and_recomputes_speedup():
    old = [
        {"n": 500, "seed_ms": 63.260656500157594, "fast_ms": 11.7, "speedup": 5.4},
        {"n": 2000, "seed_ms": 943.4574908333767, "fast_ms": 145.0,
         "speedup": 6.5},
        {"n": 100000, "seed_ms": None, "fast_ms": 1.0, "speedup": None},
    ]
    new = [
        {"n": 500, "fast_ms": 10.0},
        {"n": 2000, "fast_ms": 50.0},
        {"n": 100000, "fast_ms": 2.0},
        {"n": 7, "fast_ms": 1.0},
    ]
    rows = run_perf._carry_seed(old, new)
    assert rows[0] == {"n": 500, "seed_ms": 63.260656500157594,
                       "fast_ms": 10.0, "speedup": 6.3260656500157594}
    assert list(rows[1]) == ["n", "seed_ms", "fast_ms", "speedup"]
    assert rows[1]["seed_ms"] == 943.4574908333767
    assert rows[1]["speedup"] == 943.4574908333767 / 50.0
    assert rows[2]["seed_ms"] is None and rows[2]["speedup"] is None
    assert rows[3] == {"n": 7, "fast_ms": 1.0}


def test_carry_seed_carries_before_ms_unchanged():
    old = [{"n": 70, "layout": "two-obstacle", "scheme": "CPVF",
            "wall_ms": 150.0, "before_ms": 512.5}]
    new = [{"n": 70, "layout": "two-obstacle", "scheme": "CPVF",
            "wall_ms": 140.0}]
    (row,) = run_perf._carry_seed(old, new)
    assert row["before_ms"] == 512.5 and row["wall_ms"] == 140.0
    assert "seed_ms" not in row and "speedup" not in row


def test_carry_seed_leaves_measured_seed_columns_alone():
    old = [{"n": 12, "seed_ms": 1.0, "fast_ms": 1.0}]
    new = [{"n": 12, "seed_ms": 2.0, "fast_ms": 1.0}]
    assert run_perf._carry_seed(old, new) == new


def test_regeneration_carries_frozen_seed_ms_unchanged(tmp_path, monkeypatch):
    committed = {
        "coverage": [
            {"n": 100, "moved_per_round": 2, "seed_ms": 6.637080200016499,
             "fast_ms": 123.0, "speedup": 0.05},
            {"n": 500, "moved_per_round": 10, "seed_ms": 27.041242200357374,
             "fast_ms": 0.55, "speedup": 48.4},
        ],
        "scenario_generation": [
            {"layout": "maze", "size": 1000.0, "gen_ms": 9.5,
             "scenarios_per_s": 105.5},
        ],
    }
    out = tmp_path / "bench.json"
    out.write_text(json.dumps(committed, indent=2))
    monkeypatch.setattr(run_perf, "OUT_PATH", out)
    assert run_perf.main(["--only", "coverage", "--n", "100"]) == 0
    written = json.loads(out.read_text())
    row, untouched = written["coverage"]
    assert json.dumps(row["seed_ms"]) == "6.637080200016499"
    assert row["fast_ms"] != 123.0
    assert row["speedup"] == row["seed_ms"] / row["fast_ms"]
    assert untouched == committed["coverage"][1]
    assert written["scenario_generation"] == committed["scenario_generation"]
