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

_PERIOD = {"untraced_ms": [10.2, 10.0], "traced_ms": 10.5, "repaired": 3, "rebuilt": 1}
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

#: A passing measurement for every measurement name.
GOOD = {
    "batched_period": _PERIOD,
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
    "perf.batched_period": ("bench", ("cpvf_period", 1, "fast_ms"), 3.0),
    "perf.incremental_pairs": (("batched_period", "repaired"), 0),
    "obs.roundtrip": (("profiled_run", "json_roundtrip"), False),
    "obs.report_cli": (("report_cli", "returncode"), 1),
    "obs.committed_overhead": (
        "bench", ("telemetry_overhead", 0, "overhead_pct"), 5.5,
    ),
    "obs.fresh_overhead": (("batched_period", "traced_ms"), 31.0),
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
    injected = _with(GOOD, ("batched_period", "untraced_ms"), [31.0, 10.0])
    assert run("perf.batched_period", injected=injected) == 1
    injected = _with(GOOD, ("batched_period", "untraced_ms"), [29.0, 31.0])
    assert run("perf.batched_period", injected=injected) == 0


def test_fresh_overhead_uses_the_best_untraced_window(run):
    # Budget 3 x min(untraced) = 30 ms, not 3 x 20 ms.
    injected = _with(GOOD, ("batched_period", "untraced_ms"), [20.0, 10.0])
    injected["batched_period"]["traced_ms"] = 31.0
    bench = {"cpvf_period": []}
    assert run("obs.fresh_overhead", bench=bench, injected=injected) == 1


def test_crash_inside_a_check_fails(run):
    injected = dict(GOOD, batched_period={"untraced_ms": [1.0, 1.0]})
    assert run("perf.incremental_pairs", injected=injected) == 1


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
    injected = _with(GOOD, ("batched_period", "traced_ms"), 31.0)
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
         "batched_ms": 64.5, "speedup": 14.6},
        {"n": 100000, "seed_ms": None, "fast_ms": 1.0, "batched_ms": 1.0,
         "speedup": None},
    ]
    new = [
        {"n": 500, "fast_ms": 10.0},
        {"n": 2000, "fast_ms": 100.0, "batched_ms": 50.0},
        {"n": 100000, "fast_ms": 2.0, "batched_ms": 1.0},
        {"n": 7, "fast_ms": 1.0},
    ]
    rows = run_perf._carry_seed(old, new)
    assert rows[0] == {"n": 500, "seed_ms": 63.260656500157594,
                       "fast_ms": 10.0, "speedup": 6.3260656500157594}
    assert list(rows[1]) == ["n", "seed_ms", "fast_ms", "batched_ms", "speedup"]
    assert rows[1]["seed_ms"] == 943.4574908333767
    assert rows[1]["speedup"] == 943.4574908333767 / 50.0
    assert rows[2]["seed_ms"] is None and rows[2]["speedup"] is None
    assert rows[3] == {"n": 7, "fast_ms": 1.0}


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
