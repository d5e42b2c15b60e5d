"""Golden digests of default CPVF and FLOOR runs at smoke scale.

Each digest (``benchmarks/fingerprints.py``) covers the final positions,
odometers, per-type message and network counters, and coverage of one
deployment, exactly.  A behaviour-preserving refactor must leave every
digest unchanged; a change meant to alter behaviour updates them and
says so.  The two settings cover the paper's obstacle field on the
perfect network, and churn (failures, joins and, for FLOOR, an
appearing wall) under a lossy, stale network.
"""

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
        "bfc8ce2fea10810b3dcf0dac9454a671"
        "9bbc36dc0f57d4d8cb91bf02903855bf"
    ),
    ("FLOOR", "churn-lossy"): (
        "64578fca17b4bf831ee940c6a3551f5f"
        "6a822dc818c3a250b421078ceca55add"
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
