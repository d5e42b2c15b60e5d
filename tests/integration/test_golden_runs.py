"""Golden digests of default CPVF and FLOOR runs at smoke scale.

Each digest (``benchmarks/fingerprints.py``) covers the final positions,
odometers, per-type message and network counters, and coverage of one
deployment, exactly.  A behaviour-preserving refactor must leave every
digest unchanged; a change meant to alter behaviour updates them and
says so.  The two settings cover the paper's obstacle field on the
perfect network, and churn (failures, joins and, for FLOOR, an
appearing wall) under a lossy, stale network.  The last test checks
the whole committed seed-1 fingerprint list: every e2ebench deployment
of both workloads and the smoke-scale layout deployments.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.fingerprints import run_digest
from repro.api import NetworkSpec, ScenarioSpec
from repro.experiments.common import SMOKE_SCALE
from repro.experiments.lifecycle import lifecycle_events


def _scenario(layout: str, scripts=()) -> ScenarioSpec:
    events = ()
    for script in scripts:
        events += lifecycle_events(script, SMOKE_SCALE)
    return ScenarioSpec(
        field_size=SMOKE_SCALE.field_size,
        layout=layout,
        sensor_count=SMOKE_SCALE.sensor_count,
        duration=SMOKE_SCALE.duration,
        coverage_resolution=SMOKE_SCALE.coverage_resolution,
        seed=1,
        events=events,
    )


def _churn_scripts(scheme: str):
    scripts = ("interior-cascade", "reinforcements")
    return ("door-slam",) + scripts if scheme == "FLOOR" else scripts


GOLDEN = {
    ("CPVF", "two-obstacle"): (
        "194eacc1b1e3ce22cb761e8ee94d7ff9"
        "e11817f08f559066e9f369eb4659d872"
    ),
    ("FLOOR", "two-obstacle"): (
        "abcd21c3c30d8536a2796d20d9895e02"
        "4d76d752daf82826e721c93e6526693e"
    ),
    ("CPVF", "churn-lossy"): (
        "ca70f5d95c341985efcff698bcbb0666"
        "374e8ff14533403ca782aa4a07748742"
    ),
    ("FLOOR", "churn-lossy"): (
        "57000cae6994a24ac2172437d66acc25"
        "8e2bed50be14e4734fcab1c90f6226ad"
    ),
}


@pytest.mark.parametrize("scheme,setting", sorted(GOLDEN))
def test_run_matches_golden_digest(scheme, setting):
    if setting == "two-obstacle":
        scenario, network = _scenario("two-obstacle"), None
    else:
        scenario = _scenario("obstacle-free", _churn_scripts(scheme))
        network = NetworkSpec("unreliable", loss=0.1, staleness=5)
    assert run_digest(scenario, scheme, {}, network) == GOLDEN[scheme, setting]


def test_seed1_fingerprints_match_the_committed_list():
    """``benchmarks/fingerprints.py --seed 1 --check`` passes: every
    seed-1 deployment is byte-identical to ``fingerprints_seed1.txt``.

    Run in its own interpreter, as the command is run, so the e2ebench
    workload module it imports stays out of this process.  CI checks
    seed 2 against ``fingerprints_seed2.txt`` as well.
    """
    root = Path(__file__).resolve().parents[2]
    done = subprocess.run(
        [
            sys.executable,
            str(root / "benchmarks" / "fingerprints.py"),
            "--seed", "1",
            "--check", str(root / "benchmarks" / "fingerprints_seed1.txt"),
        ],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
