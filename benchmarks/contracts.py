#!/usr/bin/env python
"""The CI contract gate: every end-to-end contract in one table.

Usage (from the repo root)::

    python benchmarks/contracts.py                       # every contract
    python benchmarks/contracts.py --only perf.batched_period obs.roundtrip

Each entry of :data:`CONTRACTS` names a measurement, an optional
committed ``BENCH_perf.json`` row/column and a check, and says whether a
missing committed value skips the entry.  The bounds are the named
module constants below.  The driver loads the bench file once, computes
each measurement at most once (the n = 500 batched CPVF periods feed
both the perf budget and the telemetry overhead bound) and prints one
line per entry.  Budgets on fresh timings
are generous on purpose: hosted CI runners are noisy, and these gates
catch order-of-magnitude regressions (an accidentally quadratic path, a
lost cache), not timer jitter.  See ``docs/performance.md``.

Exit codes: 0 when every entry passes or skips, 1 when any entry fails
(a crash inside a measurement or check counts as a failure).
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

BENCH_PATH = REPO_ROOT / "BENCH_perf.json"

#: Population of the fresh batched CPVF period (the canonical clustered
#: bench layout; matches the committed ``cpvf_period`` n = 500 row).
PERIOD_N = 500
#: ``perf.batched_period``: the first fresh untraced period may take at
#: most this many times the committed ``fast_ms``.
PERIOD_BUDGET_FACTOR = 3.0
#: ``perf.incremental_pairs``: periods the maintained pair store must
#: answer (and at least as many as it rebuilt).
MIN_PAIRS_REPAIRED = 2
#: ``obs.committed_overhead``: null-sink telemetry overhead asserted when
#: the bench file was generated; re-checked so a regenerated entry cannot
#: silently commit a regression.
MAX_COMMITTED_OVERHEAD_PCT = 5.0
#: ``obs.fresh_overhead``: the traced period may take at most this many
#: times the fresh untraced period and the committed ``fast_ms``.
FRESH_OVERHEAD_FACTOR = 3.0
#: ``network.*``: coverage retained under 10 % per-message loss.
MIN_RETAINED_COVERAGE = 0.85
#: ``service.dedup``: of the two overlapping two-cell sweeps, three cells
#: are computed and the shared one rides the in-flight dedup.
DEDUP_COMPUTED = 3
DEDUP_INFLIGHT_HITS = 1
#: ``service.gc``: the stale-version entry and the orphaned ``.tmp``.
GC_MIN_REMOVED_FILES = 2
#: Cells of the kill/resume sweep: large enough that a poll loop reliably
#: catches the subprocess between its first and last write-through,
#: small enough for a CI budget.
KILL_SWEEP_CELLS = 6


# ----------------------------------------------------------------------
# Measurements (each computed at most once per run)
# ----------------------------------------------------------------------
class Measurements:
    """Lazily computed, memoized measurements shared by the entries.

    ``injected`` pre-fills the memo, so a test can stand a value in for
    any measurement without running it.
    """

    def __init__(self, tmp: pathlib.Path, injected: Optional[Dict] = None):
        self.tmp = tmp
        self._values = dict(injected or {})

    def get(self, name: str):
        if name not in self._values:
            self._values[name] = MEASUREMENTS[name](self)
        return self._values[name]


def _run_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def measure_batched_period(ms: Measurements) -> Dict:
    """Two untraced n = 500 batched CPVF periods, then two traced ones.

    Both untraced samples are kept: the perf budget checks the first
    (one window, as a single CI run sees it) and the overhead bound the
    best.  The first traced window's counters say whether the
    incremental pair maintenance carried the periods.
    """
    from repro.experiments.perfbench import cpvf_period_s
    from repro.obs import Telemetry

    def period_ms(telemetry=None) -> float:
        seconds = cpvf_period_s(
            PERIOD_N, seed=3, periods=4, mode="batched", telemetry=telemetry
        )
        return seconds * 1000.0

    untraced_ms = [period_ms() for _ in range(2)]
    tel = Telemetry()
    traced_ms = min(period_ms(tel), period_ms(Telemetry()))
    counters = tel.summary().counters
    return {
        "untraced_ms": untraced_ms,
        "traced_ms": traced_ms,
        "repaired": counters.get("cpvf.pairs_repaired", 0),
        "rebuilt": counters.get("cpvf.pairs_rebuilt", 0),
    }


def _small_scenario(duration: float):
    from repro.api import ScenarioSpec

    return ScenarioSpec(
        field_size=300.0,
        sensor_count=24,
        communication_range=60.0,
        sensing_range=40.0,
        duration=duration,
        coverage_resolution=15.0,
        seed=5,
    )


def measure_profiled_run(ms: Measurements) -> Dict:
    """A profiled and a plain CPVF run of the same spec."""
    from repro.api import RunRecord, RunSpec, execute_run

    scenario = _small_scenario(duration=20.0)
    plain_spec = RunSpec(scenario=scenario, scheme="CPVF", trace_every=2)
    profiled_spec = RunSpec(
        scenario=scenario, scheme="CPVF", trace_every=2, profile=True
    )
    record = execute_run(profiled_spec)
    summary = record.telemetry
    restored = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    plain = execute_run(plain_spec)
    return {
        "record": record,
        "fingerprint_stable": plain_spec.fingerprint()
        == profiled_spec.fingerprint(),
        "phases": sorted(summary.phases) if summary is not None else None,
        "periods": summary.counters.get("engine.periods", 0) if summary else 0,
        "json_roundtrip": summary is not None and restored.telemetry == summary,
        "plain_untraced": plain.telemetry is None,
        "same_result": plain.coverage == record.coverage,
    }


def measure_report_cli(ms: Measurements) -> Dict:
    """``python -m repro.obs report`` over the profiled run's trace."""
    from repro.obs.report import write_record_trace

    buffer = io.StringIO()
    lines = write_record_trace(buffer, [ms.get("profiled_run")["record"]])
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "report", "-"],
        input=buffer.getvalue(),
        capture_output=True,
        text=True,
        env=_run_env(),
    )
    return {
        "lines": lines,
        "returncode": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
    }


def _per_scheme(schemes: Sequence[str], run: Callable[[str], Dict]) -> Dict:
    """``run(scheme)`` per scheme; a crash is recorded, not raised."""
    results = {}
    for scheme in schemes:
        try:
            results[scheme] = run(scheme)
        except Exception as exc:  # noqa: BLE001 - the gate reports it
            results[scheme] = {"error": repr(exc)}
    return results


def measure_degraded_smoke(ms: Measurements) -> Dict:
    """Smoke-scale CPVF/FLOOR coverage, perfect vs 10% per-message loss."""
    from repro.api import NetworkSpec, RunSpec, execute_run
    from repro.experiments import SMOKE_SCALE, make_scenario

    scenario = make_scenario(SMOKE_SCALE, seed=1)
    network = NetworkSpec(model="unreliable", loss=0.1)

    def run(scheme: str) -> Dict:
        perfect = execute_run(RunSpec(scenario=scenario, scheme=scheme))
        degraded = execute_run(
            RunSpec(
                scenario=scenario, scheme=scheme, network=network, profile=True
            )
        )
        counters = (
            degraded.telemetry.counters if degraded.telemetry is not None else {}
        )
        return {
            "perfect": perfect.coverage,
            "degraded": degraded.coverage,
            "dropped": counters.get("net.dropped", 0),
            "retries": counters.get("net.retries", 0),
            "timeouts": counters.get("net.timeouts", 0),
        }

    return _per_scheme(("CPVF", "FLOOR"), run)


def measure_churn_smoke(ms: Measurements) -> Dict:
    """Smoke-scale mass-failure timeline (20% kill at 40%) per scheme."""
    from repro.api import RunSpec, execute_run
    from repro.experiments import SMOKE_SCALE, make_scenario
    from repro.experiments.lifecycle import lifecycle_events

    events = lifecycle_events("mass-failure", SMOKE_SCALE)

    def run(scheme: str) -> Dict:
        scenario = make_scenario(SMOKE_SCALE, seed=1, events=events)
        record = execute_run(RunSpec(scenario=scenario, scheme=scheme))
        if not record.events:
            return {"error": "no event outcomes"}
        outcome = record.events[0]
        return {
            "pre": outcome.pre_coverage,
            "post": outcome.post_coverage,
            "best": outcome.best_coverage,
            "recovery": outcome.recovery_ratio,
        }

    return _per_scheme(("CPVF", "FLOOR", "VOR"), run)


def measure_service_dedup(ms: Measurements) -> Dict:
    """Two overlapping sweeps submitted concurrently to one service."""
    from repro.api import SweepRunner, SweepSpec
    from repro.service import SweepService

    scenario = _small_scenario(duration=20.0)
    sweeps = [
        SweepSpec.grid(
            name, scenario, schemes=("CPVF",),
            axes={"communication_range": ranges},
        )
        for name, ranges in (("smoke-a", [40.0, 50.0]), ("smoke-b", [50.0, 60.0]))
    ]
    serial = [SweepRunner(jobs=1).run(s) for s in sweeps]

    async def drive():
        service = SweepService()
        try:
            jobs = [service.submit(s) for s in sweeps]
            records = await asyncio.gather(*(j.result() for j in jobs))
            await service.drain()
            return records, service.metrics
        finally:
            service.close()

    records, metrics = asyncio.run(drive())
    return {
        "computed": metrics.computed,
        "inflight_hits": metrics.inflight_hits,
        "records_equal": records == serial,
    }


def measure_service_kill_resume(ms: Measurements) -> Dict:
    """SIGKILL a ``repro.service submit`` mid-sweep, then resume it."""
    from repro.api import SweepRunner, SweepSpec
    from repro.service import RunStore, SweepService

    sweep = SweepSpec.grid(
        "smoke-kill", _small_scenario(duration=60.0), schemes=("CPVF",),
        axes={"communication_range": [35.0, 40.0, 45.0, 50.0, 55.0, 60.0]},
    )
    assert len(sweep.runs) == KILL_SWEEP_CELLS
    sweep_path = ms.tmp / "kill-sweep.json"
    sweep_path.write_text(json.dumps(sweep.to_dict()))
    store = RunStore(ms.tmp / "kill-store")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "submit",
            str(sweep_path), "--store", str(store.root), "--quiet",
        ],
        env=_run_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # Kill the client the moment the store holds a strict subset of the
    # sweep: the write-through contract persists each cell as it
    # finishes, so this leaves a genuinely partial store.
    deadline = time.monotonic() + 120.0
    try:
        while time.monotonic() < deadline and proc.poll() is None:
            if 1 <= len(store) < KILL_SWEEP_CELLS:
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.01)
        proc.wait(timeout=120.0)
    finally:
        if proc.poll() is None:  # pragma: no cover - safety net
            proc.kill()
            proc.wait()
    partial = len(store)
    result = {"partial": partial, "store": store.root}
    if not 1 <= partial < KILL_SWEEP_CELLS:
        return result

    async def resume():
        service = SweepService(store=store)
        try:
            records = await service.run(sweep)
            await service.drain()
            return records, service.metrics
        finally:
            service.close()

    records, metrics = asyncio.run(resume())
    result.update(
        computed=metrics.computed,
        store_hits=metrics.store_hits,
        records_equal=records == SweepRunner(jobs=1).run(sweep),
    )
    return result


def measure_service_gc(ms: Measurements) -> Dict:
    """GC of the resumed store after planting a stale entry and a temp file."""
    from repro.service import RunStore

    store = RunStore(ms.get("service_kill_resume")["store"])
    entries = len(store)
    # A stale schema version and an orphaned temp file are exactly what a
    # version bump / a crashed writer leave behind.
    record = store.load(next(iter(store.fingerprints())))
    RunStore(store.root, schema_version=0).put(record)
    shard = store.path_for(record.spec.fingerprint()).parent
    (shard / ".deadbeef.tmp").write_text("orphan")
    report = store.gc()
    return {
        "entries": entries,
        "removed_files": report.removed_files,
        "kept_entries": report.kept_entries,
        "surviving": len(store),
    }


MEASUREMENTS: Dict[str, Callable[[Measurements], object]] = {
    "batched_period": measure_batched_period,
    "profiled_run": measure_profiled_run,
    "report_cli": measure_report_cli,
    "degraded_smoke": measure_degraded_smoke,
    "churn_smoke": measure_churn_smoke,
    "service_dedup": measure_service_dedup,
    "service_kill_resume": measure_service_kill_resume,
    "service_gc": measure_service_gc,
}


# ----------------------------------------------------------------------
# Checks: (measurement if any, committed values if any) -> (ok, detail)
# ----------------------------------------------------------------------
Verdict = Tuple[bool, str]


def _require(detail: str, *requirements: Tuple[bool, str]) -> Verdict:
    """Pass with ``detail`` when every ``(ok, failure)`` holds."""
    failures = [failure for ok, failure in requirements if not ok]
    return (not failures, "; ".join(failures) if failures else detail)


def check_period_budget(m, committed) -> Verdict:
    fast_ms = committed[0]
    first_ms = m["untraced_ms"][0]
    budget = PERIOD_BUDGET_FACTOR * fast_ms
    return (
        first_ms <= budget,
        f"n={PERIOD_N} batched period {first_ms:.2f} ms, budget {budget:.2f} ms "
        f"({PERIOD_BUDGET_FACTOR:g} x committed fast_ms {fast_ms:.2f} ms)",
    )


def check_incremental_pairs(m) -> Verdict:
    # Drift accumulates toward the store's slack budget over the window,
    # so one mid-window rebuild is legitimate; the incremental path must
    # still dominate.
    repaired, rebuilt = m["repaired"], m["rebuilt"]
    return (
        repaired >= MIN_PAIRS_REPAIRED and repaired >= rebuilt,
        f"pairs repaired={repaired} rebuilt={rebuilt} "
        f"(need >= {MIN_PAIRS_REPAIRED} and >= rebuilt)",
    )


def check_roundtrip(m) -> Verdict:
    phases = m["phases"] or ()
    return _require(
        f"phases={len(phases)}",
        (m["fingerprint_stable"], "profile=True changed the fingerprint"),
        ("engine.scheme_step" in phases,
         f"no engine.scheme_step phase in the telemetry (has {m['phases']})"),
        (m["periods"] > 0, "engine.periods counter missing/zero"),
        (m["json_roundtrip"], "TelemetrySummary did not survive JSON"),
        (m["plain_untraced"], "unprofiled record carries telemetry"),
        (m["same_result"], "profiling changed the simulation result"),
    )


def check_report_cli(m) -> Verdict:
    return _require(
        f"{m['lines']} trace lines rendered",
        (m["returncode"] == 0,
         f"CLI exited {m['returncode']}: {m['stderr'].strip()}"),
        ("phase breakdown" in m["stdout"], "CLI output missing the phase table"),
    )


def check_committed_overhead(committed) -> Verdict:
    pct = committed[0]
    return (
        pct <= MAX_COMMITTED_OVERHEAD_PCT,
        f"committed null-sink overhead {pct:.1f}% "
        f"(<= {MAX_COMMITTED_OVERHEAD_PCT:g}%)",
    )


def check_fresh_overhead(m, committed) -> Verdict:
    untraced_ms = min(m["untraced_ms"])
    budget = FRESH_OVERHEAD_FACTOR * untraced_ms
    if committed:
        budget = min(budget, FRESH_OVERHEAD_FACTOR * committed[0])
    return (
        m["traced_ms"] <= budget,
        f"traced n={PERIOD_N} batched period {m['traced_ms']:.2f} ms, "
        f"untraced {untraced_ms:.2f} ms, budget {budget:.2f} ms",
    )


def check_degraded_smoke(m) -> Verdict:
    requirements, parts = [], []
    for scheme, r in m.items():
        if "error" in r:
            requirements.append((False, f"{scheme} crashed: {r['error']}"))
            continue
        ratio = r["degraded"] / r["perfect"] if r["perfect"] > 0 else 0.0
        summary = f"{scheme} retained {ratio:.1%} dropped={r['dropped']}"
        parts.append(summary)
        requirements.append(
            (ratio >= MIN_RETAINED_COVERAGE and r["dropped"] > 0,
             f"{summary} (need >= {MIN_RETAINED_COVERAGE:.0%} and dropped > 0)")
        )
    return _require(", ".join(parts), *requirements)


def check_bench_degraded(committed) -> Verdict:
    retained = ", ".join(f"{ratio:.1%}" for ratio in committed)
    return (
        min(committed) >= MIN_RETAINED_COVERAGE,
        f"committed retained {retained} (>= {MIN_RETAINED_COVERAGE:.0%})",
    )


def check_churn_recovery(m) -> Verdict:
    requirements, parts = [], []
    for scheme, r in m.items():
        if "error" in r:
            requirements.append((False, f"{scheme}: {r['error']}"))
            continue
        parts.append(f"{scheme} post={r['post']:.3f} best={r['best']:.3f}")
        requirements.append(
            (r["best"] - r["post"] > 0.0,
             f"{scheme} did not recover coverage after churn")
        )
    return _require(", ".join(parts), *requirements)


def check_dedup(m) -> Verdict:
    return _require(
        f"computed={m['computed']}",
        (m["computed"] == DEDUP_COMPUTED,
         f"computed {m['computed']} cells, expected {DEDUP_COMPUTED} (the "
         "shared rc=50 cell must ride the in-flight dedup)"),
        (m["inflight_hits"] == DEDUP_INFLIGHT_HITS,
         f"{m['inflight_hits']} in-flight hits, expected {DEDUP_INFLIGHT_HITS}"),
        (m["records_equal"], "service records diverged from SweepRunner(jobs=1)"),
    )


def check_kill_resume(m) -> Verdict:
    partial = m["partial"]
    if not 1 <= partial < KILL_SWEEP_CELLS:
        return False, (
            f"store holds {partial}/{KILL_SWEEP_CELLS} cells after SIGKILL; "
            "need a strict subset"
        )
    missing = KILL_SWEEP_CELLS - partial
    return _require(
        f"killed at {partial}/{KILL_SWEEP_CELLS}, recomputed {m['computed']}",
        (m["computed"] == missing and m["store_hits"] == partial,
         f"recomputed {m['computed']} cells ({m['store_hits']} store hits), "
         f"expected exactly the {missing} missing ones"),
        (m["records_equal"], "resumed records diverged from serial run"),
    )


def check_gc(m) -> Verdict:
    entries = m["entries"]
    return _require(
        f"removed {m['removed_files']} files, kept {m['kept_entries']}",
        (m["removed_files"] >= GC_MIN_REMOVED_FILES,
         f"removed {m['removed_files']} files, expected the stale version "
         "entry and the orphaned .tmp"),
        (m["surviving"] == entries and m["kept_entries"] == entries,
         f"{m['surviving']} current entries survive (expected {entries})"),
    )


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Committed:
    """A column of ``BENCH_perf.json`` rows (optionally the row with ``n``)."""

    entry: str
    column: str
    n: Optional[int] = None

    def values(self, bench: Dict) -> Optional[list]:
        rows = bench.get(self.entry) or ()
        values = [
            row[self.column]
            for row in rows
            if self.column in row and (self.n is None or row.get("n") == self.n)
        ]
        return values or None


@dataclass(frozen=True)
class Contract:
    """One gate: measure (optional), read committed values (optional), check.

    The check takes the measurement when ``measure`` is set, then the
    committed values when ``committed`` is set.
    """

    name: str
    measure: Optional[str]
    check: Callable[..., Verdict]
    committed: Optional[Committed] = None
    #: With a committed column: skip (exit 0) when it is missing; ``False``
    #: runs the check with ``committed=None`` instead.
    skip_if_missing: bool = True


_FAST_MS = Committed("cpvf_period", "fast_ms", n=PERIOD_N)

CONTRACTS: Tuple[Contract, ...] = (
    Contract("perf.batched_period", "batched_period", check_period_budget,
             committed=_FAST_MS),
    Contract("perf.incremental_pairs", "batched_period",
             check_incremental_pairs),
    Contract("obs.roundtrip", "profiled_run", check_roundtrip),
    Contract("obs.report_cli", "report_cli", check_report_cli),
    Contract("obs.committed_overhead", None, check_committed_overhead,
             committed=Committed("telemetry_overhead", "overhead_pct")),
    Contract("obs.fresh_overhead", "batched_period", check_fresh_overhead,
             committed=_FAST_MS, skip_if_missing=False),
    Contract("network.degraded_smoke", "degraded_smoke",
             check_degraded_smoke),
    Contract("network.bench_degraded", None, check_bench_degraded,
             committed=Committed("degraded_coverage", "coverage_ratio")),
    Contract("lifecycle.churn_recovery", "churn_smoke", check_churn_recovery),
    Contract("service.dedup", "service_dedup", check_dedup),
    Contract("service.kill_resume", "service_kill_resume", check_kill_resume),
    Contract("service.gc", "service_gc", check_gc),
)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def evaluate(
    contract: Contract, bench: Dict, ms: Measurements
) -> Tuple[str, str]:
    """``(verdict, detail)`` with verdict ``ok``, ``FAIL`` or ``SKIP``."""
    args = []
    if contract.committed is not None:
        committed = contract.committed.values(bench)
        if committed is None and contract.skip_if_missing:
            where = contract.committed
            return "SKIP", f"no committed {where.entry} {where.column}"
        args.append(committed)
    try:
        if contract.measure:
            args.insert(0, ms.get(contract.measure))
        ok, detail = contract.check(*args)
    except Exception as exc:  # noqa: BLE001 - the gate reports, CI fails
        return "FAIL", f"crashed: {exc!r}"
    return ("ok" if ok else "FAIL"), detail


def main(argv=None, injected: Optional[Dict] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", nargs="+", metavar="NAME", default=None,
        help="run only these contracts",
    )
    args = parser.parse_args(argv)
    selected = [
        c for c in CONTRACTS if args.only is None or c.name in args.only
    ]
    unknown = set(args.only or ()) - {c.name for c in CONTRACTS}
    if unknown:
        parser.error(f"unknown contracts {sorted(unknown)}")

    bench = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    failed = []
    with tempfile.TemporaryDirectory(prefix="contracts-") as tmpdir:
        ms = Measurements(pathlib.Path(tmpdir), injected)
        for contract in selected:
            verdict, detail = evaluate(contract, bench, ms)
            print(f"contracts: {contract.name} {verdict} ({detail})", flush=True)
            if verdict == "FAIL":
                failed.append(contract.name)
    if failed:
        print(f"contracts: FAILED {failed}")
        return 1
    print(f"contracts: {len(selected)} contracts hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
