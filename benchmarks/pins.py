#!/usr/bin/env python
"""Every behaviour pin of the reproduction, checked or re-pinned by one command.

Usage (from the repo root)::

    python benchmarks/pins.py            # check; exits 1 on any difference
    python benchmarks/pins.py --update   # re-pin and print what moved

Two files under ``benchmarks/pins/`` hold the runs still:

- ``runs.txt`` has one ``<setting> <seed> <index> <scheme> <sha256>``
  line per run of :func:`pinned_runs`.  The digest (:func:`world_digest`)
  covers the final positions, the odometers, the per-type message and
  network counters and the coverage, all exact.  The runs are every
  deployment of the ``e2ebench`` workloads (``e2ebench/workloads.py``,
  read as is) and one smoke-scale CPVF and FLOOR deployment on each
  generated obstacle layout (:data:`LAYOUTS`), both at seeds 1 and 2;
  smoke-scale runs on the paper's two fields (:data:`FIELD_RUNS`); and
  CPVF and FLOOR under churn on a lossy network (``smoke-churn-lossy``).
- ``smoke_report.txt`` is the report of ``python -m
  repro.experiments.runner`` with :data:`REPORT_ARGS`, byte for byte.

A change meant to keep behaviour identical leaves both files unchanged:
the check prints every differing run and the report's unified diff.  A
change meant to move numbers runs ``--update``, which rewrites both
files and prints the same lines (``<run>: old → new``) for the change
log.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import pathlib
import sys
from typing import Dict, Iterator, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

PINS = pathlib.Path(__file__).resolve().with_name("pins")
RUNS = PINS / "runs.txt"
REPORT = PINS / "smoke_report.txt"

#: The runner arguments of the pinned smoke report.
REPORT_ARGS = ["--scale", "smoke", "--jobs", "2", "--trace-every", "20"]

#: ``(layout, layout_params)`` of the smoke-scale layout deployments;
#: ``random-obstacles`` draws four rectangles, which overlap.
LAYOUTS = (
    ("corridor", {}),
    ("random-obstacles", {"min_obstacles": 4}),
    ("clutter", {}),
    ("maze", {}),
    ("rooms", {}),
    ("spiral", {}),
)

#: ``(layout, seeds, schemes)`` of the smoke-scale runs on the paper's
#: obstacle-free and two-obstacle fields.
FIELD_RUNS = (
    ("two-obstacle", (1,), ("CPVF", "FLOOR")),
    ("two-obstacle", (1, 2, 3), ("VOR", "Minimax")),
    ("obstacle-free", (1, 2, 3), ("VOR", "Minimax")),
)


def world_digest(world, coverage: float) -> str:
    """sha256 of a finished world's positions, odometers, counters, coverage."""
    payload = {
        "positions": [(s.position.x, s.position.y) for s in world.sensors],
        "odometers": [s.motion.odometer for s in world.sensors],
        "counters": world.stats.to_counters(),
        "coverage": coverage,
    }
    # json writes floats with repr, which round-trips exactly.
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_digest(scenario, scheme: str, params: Dict, network=None) -> str:
    """Deploy ``scheme`` on ``scenario`` the way ``execute_run`` does."""
    from repro.api import scheme_registry
    from repro.sim import SimulationEngine

    world = scenario.build_world(scenario.build_field())
    if network is not None:
        world.network = network.build(scenario.seed)
    engine = SimulationEngine(
        world,
        scheme_registry.get(scheme).build_scheme(scenario, dict(params)),
        trace_every=None,
        events=scenario.events,
    )
    result = engine.run()
    return world_digest(world, result.final_coverage)


def pinned_runs() -> Iterator[tuple]:
    """``(run, scheme, scenario, network)`` of every pinned run, in file
    order; ``run`` is the line's ``<setting> <seed> <index> <scheme>``."""
    sys.path.insert(0, str(REPO_ROOT / "e2ebench"))
    from workloads import WORKLOADS

    from repro.api import NetworkSpec
    from repro.experiments.common import SMOKE_SCALE, make_scenario
    from repro.experiments.lifecycle import lifecycle_events

    for seed in (1, 2):
        for name, workload in WORKLOADS.items():
            for index, (scheme, scenario, network) in enumerate(
                workload.deployments(seed)
            ):
                yield f"{name} {seed} {index} {scheme}", scheme, scenario, network
        for layout, params in LAYOUTS:
            scenario = make_scenario(
                SMOKE_SCALE, seed=seed, layout=layout, layout_params=params
            )
            for scheme in ("CPVF", "FLOOR"):
                yield f"smoke-{layout} {seed} 0 {scheme}", scheme, scenario, None
    for layout, seeds, schemes in FIELD_RUNS:
        for seed in seeds:
            scenario = make_scenario(SMOKE_SCALE, seed=seed, layout=layout)
            for scheme in schemes:
                yield f"smoke-{layout} {seed} 0 {scheme}", scheme, scenario, None
    # Failures and joins (and, for FLOOR, a wall slammed shut) under 10%
    # loss and staleness 5.
    lossy = NetworkSpec("unreliable", loss=0.1, staleness=5)
    for scheme in ("CPVF", "FLOOR"):
        scripts = ("interior-cascade", "reinforcements")
        if scheme == "FLOOR":
            scripts = ("door-slam",) + scripts
        events = sum((lifecycle_events(s, SMOKE_SCALE) for s in scripts), ())
        scenario = make_scenario(SMOKE_SCALE, seed=1, events=events)
        yield f"smoke-churn-lossy 1 0 {scheme}", scheme, scenario, lossy


def smoke_report() -> str:
    """The runner's standard output for :data:`REPORT_ARGS`."""
    from repro.experiments.runner import main as runner_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if runner_main(REPORT_ARGS) != 0:
            raise RuntimeError(f"runner {' '.join(REPORT_ARGS)} failed")
    return out.getvalue()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the pins and print what moved",
    )
    args = parser.parse_args(argv)
    runs = {
        run: run_digest(scenario, scheme, {}, network)
        for run, scheme, scenario, network in pinned_runs()
    }
    report = smoke_report()
    pinned = dict(line.rsplit(" ", 1) for line in RUNS.read_text().splitlines())
    pinned_report = REPORT.read_text()
    moved = [
        f"{run}: {pinned.get(run, '(none)')} → {runs.get(run, '(none)')}"
        for run in {**pinned, **runs}
        if pinned.get(run) != runs.get(run)
    ]
    diff = "".join(
        difflib.unified_diff(
            pinned_report.splitlines(keepends=True),
            report.splitlines(keepends=True),
            fromfile=f"pinned {REPORT.name}",
            tofile="runner output",
        )
    )
    for line in moved:
        print(line)
    print(diff, end="")
    if args.update:
        RUNS.write_text("".join(f"{r} {d}\n" for r, d in runs.items()))
        REPORT.write_text(report)
        print(f"re-pinned: {len(moved)} runs moved, report "
              f"{'moved' if diff else 'unchanged'}")
        return 0
    print(f"{len(runs) - len(moved)} of {len(runs)} runs identical, "
          f"smoke report {'differs' if diff else 'identical'}")
    return 1 if moved or diff else 0


if __name__ == "__main__":
    sys.exit(main())
