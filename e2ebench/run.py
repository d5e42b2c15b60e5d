"""End-to-end benchmark of the CPVF and FLOOR deployments (see README.md).

    python3 e2ebench/run.py --workload paper-obstacle --seed 1 --seconds 60 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no tracing; ``--trace 1`` runs the workload's first
scenario untraced and then traced, reports the per-layer metrics and
writes the traced run to ``e2ebench/out/`` as JSONL that
``python -m repro.obs report`` renders.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from timing import REF_NOMINAL_MS, SegmentClock, normalize, normalized  # noqa: E402
from workloads import SCHEMES, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
#: A deployment that would start later than this many ``--seconds`` into
#: the run is not run and counts as failed.
HARD_STOP = 2.0
#: Timed repetitions of each import / per-run set-up; the median counts.
SETUP_REPEATS = 5
#: Times ``import repro`` in a fresh interpreter, then measures the
#: reference kernel in that same process, on the core it ran on.
IMPORT_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import repro\n"
    "raw = time.perf_counter() - t\n"
    "import timing\n"
    "print(raw, sum(timing.measure_ref_ms() for _ in range(3)) / 3)\n"
)


class Outcome:
    """One scheme run: timing, work done, and what the checks found."""

    def __init__(self, scheme: str):
        self.scheme = scheme
        self.problems = []
        self.normalized_s = 0.0
        self.raw_s = 0.0
        self.refs = []
        self.sensor_periods = 0
        self.coverage = 0.0
        self.overlong = 0
        self.fingerprint = None
        self.record = None
        self.tracer = None

    @property
    def ok(self) -> bool:
        return not self.problems


@contextmanager
def step_hook(clock: SegmentClock):
    """Call ``clock.on_step`` before every period of every scheme."""
    from repro.sim import DeploymentScheme

    patches = []
    for cls in tracing.subclasses(DeploymentScheme):
        fn = cls.__dict__.get("step")
        if fn is None:
            continue

        def step(self, world, _step=fn):
            clock.on_step(world)
            return _step(self, world)

        setattr(cls, "step", step)
        patches.append((cls, fn))
    try:
        yield
    finally:
        for cls, fn in patches:
            setattr(cls, "step", fn)


def run_scheme(scenario, network, scheme: str, traced: bool) -> Outcome:
    """Deploy ``scheme`` on ``scenario`` through the public API and check it."""
    from repro.api import RunSpec, execute_run

    outcome = Outcome(scheme)
    spec = RunSpec(scenario=scenario, scheme=scheme, network=network, profile=traced)
    clock = SegmentClock()
    tracer = tracing.Tracer() if traced else None
    try:
        if tracer is not None:
            tracer.install()
        try:
            with step_hook(clock):
                clock.begin()
                record = execute_run(spec)
                clock.end()
        finally:
            if tracer is not None:
                tracer.uninstall()
        world = clock.world
        if world is None:
            raise RuntimeError("the run executed no period")
        outcome.problems, outcome.overlong = oracles.check_world(
            world, record, require_tree=scheme == "CPVF"
        )
        outcome.fingerprint = (
            record.coverage,
            record.total_messages,
            record.periods_executed,
            record.total_moving_distance,
            tuple(sorted(world.stats.to_counters().items())),
            tuple((s.position.x, s.position.y) for s in world.sensors),
        )
    except Exception:  # a crashed run counts as failed; keep benchmarking
        outcome.problems.append(traceback.format_exc())
        return outcome
    outcome.record = record
    outcome.tracer = tracer
    outcome.normalized_s = clock.normalized_s
    outcome.raw_s = clock.raw_s
    outcome.refs = clock.refs
    outcome.sensor_periods = clock.sensor_periods
    outcome.coverage = record.coverage
    return outcome


def run_pass(deployments, traced: bool = False):
    """Every deployment of ``deployments``, in order."""
    return [
        run_scheme(scenario, network, scheme, traced)
        for scheme, scenario, network in deployments
    ]


def report_problems(label: str, outcomes) -> None:
    for outcome in outcomes:
        for problem in outcome.problems:
            print(f"[{label}] {outcome.scheme}: {problem}", file=sys.stderr)


# ----------------------------------------------------------------------
# Set-up: import + field/world build + scheme initialization
# ----------------------------------------------------------------------
def import_seconds() -> float:
    """Median host-normalized time of ``import repro`` in a fresh process."""

    def once() -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, str(SRC), str(HERE)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        raw, ref_ms = map(float, done.stdout.split()[-2:])
        return normalize(raw, ref_ms, ref_ms)

    return statistics.median(once() for _ in range(SETUP_REPEATS))


def setup_seconds(deployments) -> float:
    """Summed median host-normalized set-up time of every deployment."""
    from repro.api import scheme_registry

    total = 0.0
    for scheme, scenario, network in deployments:
        adapter = scheme_registry.get(scheme)

        def setup() -> float:
            start = perf_counter()
            world = scenario.build_world(scenario.build_field())
            if network is not None:
                world.network = network.build(scenario.seed)
            adapter.build_scheme(scenario, {}).initialize(world)
            return perf_counter() - start

        total += statistics.median(normalized(setup) for _ in range(SETUP_REPEATS))
    return total


# ----------------------------------------------------------------------
# Untraced end-to-end run
# ----------------------------------------------------------------------
def end_to_end(workload, seed: int, seconds: float):
    """The end-to-end metrics of the workload's fixed list of deployments.

    ``seconds`` is only a safety stop: a
    deployment that would start after ``HARD_STOP * seconds`` is not run
    and counts as failed, so a run never quietly measures fewer inputs.
    """
    deployments = workload.deployments(seed)
    setup_s = import_seconds() + setup_seconds(deployments)

    outcomes = []
    start = perf_counter()
    for scheme, scenario, network in deployments:
        if perf_counter() - start > HARD_STOP * seconds:
            outcome = Outcome(scheme)
            outcome.problems.append(
                f"not run: the run passed {HARD_STOP * seconds:.0f} s"
            )
        else:
            outcome = run_scheme(scenario, network, scheme, False)
        outcomes.append(outcome)

    report_problems(workload.name, outcomes)
    failed = sum(1 for o in outcomes if not o.ok)

    # Runs that raised or were not run have no timing; they count only
    # as failures.
    done = [o for o in outcomes if o.record is not None]

    def mean_time(scheme):
        times = [o.normalized_s for o in done if o.scheme == scheme]
        return statistics.fmean(times) if times else 0.0

    run_s = sum(o.normalized_s for o in done)
    metrics = {
        "sensor_periods_per_s": (
            sum(o.sensor_periods for o in done) / run_s if run_s else 0.0,
            "1/s",
        ),
        "cpvf_s": (mean_time("CPVF"), "s"),
        "floor_s": (mean_time("FLOOR"), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "coverage_mean": (
            statistics.fmean(o.coverage for o in done) if done else 0.0,
            "fraction",
        ),
        "pass_ratio": ((len(outcomes) - failed) / len(outcomes), "fraction"),
    }
    print(
        f"{workload.name}: {len(done)} of {len(outcomes)} deployments ran in "
        f"{perf_counter() - start:.3f} s; run time "
        f"{sum(o.raw_s for o in done):.3f} s raw, {run_s:.3f} s host-normalized",
        file=sys.stderr,
    )
    return metrics, len(outcomes), failed


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
#: Traced names reported as ``<name>.calls`` and ``<name>.self_ms``.
LEAF_METRICS = (
    "floor.expansion_points",
    "floor.registry_covered",
    "field.is_free",
    "field.segment_blocked",
    "field.max_free_travel",
    "field.max_free_travel_batch",
    "field.first_obstacle_hit",
    "field.nearest_free",
    "geometry.polygon_contains",
    "geometry.blocks_segment",
    "spatial.query_radius",
    "spatial.neighbor_table",
    "spatial.index_build",
    "mobility.bug2_plan",
    "network.protocol_table",
)


def _percentile(values, share: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def traced_run(workload, seed: int):
    first = workload.deployments(seed)[: len(SCHEMES)]
    untraced = run_pass(first)
    traced = run_pass(first, traced=True)
    for plain, observed in zip(untraced, traced):
        if None not in (plain.fingerprint, observed.fingerprint) and (
            plain.fingerprint != observed.fingerprint
        ):
            observed.problems.append(
                "traced run diverged from the untraced run (coverage, messages, "
                "periods, distance, counters or final positions differ)"
            )
    outcomes = untraced + traced
    report_problems(workload.name, outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    done = [o for o in traced if o.record is not None]

    refs = [r for o in done for r in o.refs]
    ref_ms = statistics.median(refs) if refs else REF_NOMINAL_MS
    factor = REF_NOMINAL_MS / ref_ms

    def stat(name: str, index: int) -> float:
        return sum(o.tracer.stats[name][index] for o in done)

    def phase_ms(name: str) -> float:
        return 1e3 * factor * sum(
            o.record.telemetry.phases[name].seconds
            for o in done
            if name in o.record.telemetry.phases
        )

    counters = {}
    for o in done:
        for key, value in o.record.telemetry.counters.items():
            counters[key] = counters.get(key, 0) + value

    steps = [1e3 * factor * step_s for o in done for step_s in o.tracer.steps]
    floor_runs = [o for o in done if o.scheme == "FLOOR"]
    issued = counters.get("floor.invitations_issued", 0)
    started = counters.get("floor.relocations_started", 0)
    messages = counters.get("messages.total", 0)
    raw_untraced = sum(o.raw_s for o in untraced)
    raw_traced = sum(o.raw_s for o in done)

    metrics = {
        "sim.step_ms_p50": (_percentile(steps, 0.50), "ms"),
        "sim.step_ms_p95": (_percentile(steps, 0.95), "ms"),
        "sim.fault_injection_ms": (1e3 * factor * stat("sim.fault_injection", 1), "ms"),
        "lifecycle.events_fired": (counters.get("lifecycle.events_fired", 0), "count"),
        "tree.repair_ms": (phase_ms("tree.repair"), "ms"),
        "tree.repairs": (counters.get("tree.repairs", 0), "count"),
        "cpvf.forces_ms": (1e3 * factor * stat("cpvf.forces", 1), "ms"),
        "cpvf.repair_ms": (1e3 * factor * stat("cpvf.repair", 1), "ms"),
        "cpvf.parent_changes": (counters.get("cpvf.parent_changes", 0), "count"),
        "cpvf.lock_aborts": (counters.get("cpvf.lock_aborts", 0), "count"),
        "floor.expansion_round_ms": (phase_ms("floor.expansion_round"), "ms"),
        "floor.invitations_issued": (issued, "count"),
        "floor.relocations_started": (started, "count"),
        "floor.relocation_yield": (started / issued if issued else 0.0, "ratio"),
        "floor.overlong_links": (sum(o.overlong for o in floor_runs), "count"),
        "field.obstacle_writes": (stat("field.obstacle_writes", 0), "count"),
        "messages.total": (messages, "count"),
        "net.dropped": (counters.get("net.dropped", 0), "count"),
        "net.retries": (counters.get("net.retries", 0), "count"),
        "net.timeouts": (counters.get("net.timeouts", 0), "count"),
        "net.stale_reads": (counters.get("net.stale_reads", 0), "count"),
        "net.retry_ratio": (
            counters.get("net.retries", 0) / messages if messages else 0.0,
            "ratio",
        ),
        "host.ref_ms": (ref_ms, "ms"),
        "host.speed_factor": (factor, "ratio"),
        "host.raw_run_s": (raw_untraced, "s"),
        "trace.overhead_ratio": (
            raw_traced / raw_untraced if raw_untraced else 0.0,
            "ratio",
        ),
    }
    for name in LEAF_METRICS:
        metrics[f"{name}.calls"] = (stat(name, 0), "count")
        metrics[f"{name}.self_ms"] = (1e3 * factor * stat(name, 2), "ms")
    metrics["spatial.coverage_update.self_ms"] = (
        1e3 * factor * stat("spatial.coverage_update", 2),
        "ms",
    )

    missing = sorted({t for o in done for t in o.tracer.missing})
    for target in missing:
        print(f"[{workload.name}] trace target not found: {target}", file=sys.stderr)
    path = write_trace(workload.name, seed, done)
    print(f"{workload.name}: trace written to {path}", file=sys.stderr)
    return metrics, len(outcomes), failed


def write_trace(workload_name: str, seed: int, outcomes) -> Path:
    """The traced runs as ``python -m repro.obs report`` JSONL.

    One ``summary`` line per run carries the program's own phases and
    counters plus each traced name as a phase holding its self time.
    """
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload_name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as out:
        for index, o in enumerate(outcomes):
            run = f"{workload_name}/{o.scheme}/{index}"
            summary = o.record.telemetry.to_dict()
            for name, (calls, _, self_s) in o.tracer.stats.items():
                if calls:
                    summary["phases"][name] = {"seconds": self_s, "calls": int(calls)}
            out.write(json.dumps({"type": "summary", "run": run, **summary}) + "\n")
    return path


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failed = traced_run(workload, args.seed)
    else:
        metrics, attempted, failed = end_to_end(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
