#!/usr/bin/env python
"""Byte-identity fingerprints of the end-to-end benchmark's deployments.

Usage (from the repo root)::

    python benchmarks/fingerprints.py --seed 1 > seed1.txt
    python benchmarks/fingerprints.py --seed 1 --check seed1.txt

Runs every deployment of the ``e2ebench`` workloads
(``e2ebench/workloads.py``, read as is) for ``--seed``, CPVF and FLOOR
alike, then one CPVF and one FLOOR deployment at smoke scale on each
generated obstacle layout (:data:`LAYOUTS`: polygons, overlapping
rectangles, touching walls).  It prints one line per run,
``<workload> <index> <scheme> <sha256>``, where the digest covers the
final positions, the odometers, the per-type message (and network)
counters and the final coverage, all exact.  A change meant to keep
behaviour identical must leave every line unchanged: save the list at
the parent commit and ``--check`` it after the change.  ``--check``
prints the differing lines and exits 1 on any difference.  The seed-1
and seed-2 lists are committed as ``benchmarks/fingerprints_seed1.txt``
and ``benchmarks/fingerprints_seed2.txt`` and CI checks against both; a
change meant to alter behaviour re-pins them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from typing import Dict, Iterator, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

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


def fingerprints(seed: int) -> Iterator[str]:
    """One ``<workload> <index> <scheme> <sha256>`` line per run."""
    sys.path.insert(0, str(REPO_ROOT / "e2ebench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        for index, (scheme, scenario, network) in enumerate(
            workload.deployments(seed)
        ):
            digest = run_digest(scenario, scheme, {}, network)
            yield f"{name} {index} {scheme} {digest}"
    from repro.experiments.common import SMOKE_SCALE, make_scenario

    for layout, params in LAYOUTS:
        scenario = make_scenario(
            SMOKE_SCALE, seed=seed, layout=layout, layout_params=params
        )
        for scheme in ("CPVF", "FLOOR"):
            digest = run_digest(scenario, scheme, {})
            yield f"smoke-{layout} 0 {scheme} {digest}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--check", type=pathlib.Path, default=None,
        help="a saved fingerprint list to diff against",
    )
    args = parser.parse_args(argv)
    lines = list(fingerprints(args.seed))
    if args.check is None:
        print("\n".join(lines))
        return 0
    saved = [line for line in args.check.read_text().splitlines() if line.strip()]
    differing = [(old, new) for old, new in zip(saved, lines) if old != new]
    for old, new in differing:
        print(f"- {old}\n+ {new}")
    if len(saved) != len(lines):
        print(f"run count differs: saved {len(saved)}, now {len(lines)}")
        return 1
    print(f"{len(lines) - len(differing)} of {len(lines)} fingerprints identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
