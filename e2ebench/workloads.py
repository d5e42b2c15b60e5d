"""The benchmark's workloads: fixed scenario lists derived from ``--seed``.

Each workload is a fixed number of scenarios: CPVF and then FLOOR
deploy on the first, the workload's ``later_schemes`` on the rest, so a
run always measures the same deployments whatever the host's speed.
A workload may give each scheme its own variant of a scenario (its
event timeline).  Every scenario seed is derived from the benchmark seed, the workload
name and the scenario index, so the same ``--seed`` always gives the
same inputs.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

SCHEMES = ("CPVF", "FLOOR")


def scenario_seed(seed: int, workload: str, index: int) -> int:
    """A 31-bit scenario seed for scenario ``index`` of a workload."""
    digest = hashlib.blake2b(
        f"{seed}/{workload}/{index}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 33


@dataclass(frozen=True)
class Workload:
    """A named list of scenarios plus the network they run under."""

    name: str
    #: Number of scenarios a run deploys on, in a fixed order.
    scenarios: int
    #: ``(seed, scheme) -> ScenarioSpec`` for one deployment.
    build: Callable
    #: ``() -> NetworkSpec | None``.
    network: Callable = lambda: None
    #: Schemes deployed on every scenario after the first (which runs
    #: all of :data:`SCHEMES`).
    later_schemes: Tuple[str, ...] = SCHEMES

    def deployments(self, seed: int) -> List[Tuple[str, object, Optional[object]]]:
        """``[(scheme, scenario, network), ...]`` of one run, in run order.

        The first :data:`SCHEMES` entries deploy on the first scenario.
        """
        runs = []
        for k in range(self.scenarios):
            derived = scenario_seed(seed, self.name, k)
            for scheme in SCHEMES if k == 0 else self.later_schemes:
                runs.append((scheme, self.build(derived, scheme), self.network()))
        return runs


def _bench_scenario(layout: str, seed: int, **overrides):
    """The paper's setting at the figures' bench scale (500 m, n=70, 250 s)."""
    from repro.api import ScenarioSpec
    from repro.experiments.common import BENCH_SCALE

    settings = dict(
        field_size=BENCH_SCALE.field_size,
        layout=layout,
        placement="clustered",
        sensor_count=BENCH_SCALE.sensor_count,
        communication_range=60.0,
        sensing_range=40.0,
        duration=BENCH_SCALE.duration,
        coverage_resolution=BENCH_SCALE.coverage_resolution,
        seed=seed,
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


def _paper_obstacle(seed: int, scheme: str):
    # 100 of the figures' 250 periods: FLOOR's cost varies with the start
    # placement, and more, shorter deployments average that out within
    # a run (see README.md).
    return _bench_scenario("two-obstacle", seed, duration=100.0)


def _churn_lossy(seed: int, scheme: str):
    from repro.experiments.common import BENCH_SCALE
    from repro.experiments.lifecycle import lifecycle_events

    # CPVF does not run door-slam: a sensor the appearing wall displaces
    # keeps its tree links, which can end longer than rc (see README.md).
    scripts = ("interior-cascade", "reinforcements")
    if scheme == "FLOOR":
        scripts = ("door-slam",) + scripts
    events = ()
    for script in scripts:
        events += lifecycle_events(script, BENCH_SCALE)
    return _bench_scenario("obstacle-free", seed, events=events)


def _lossy_network():
    from repro.api import NetworkSpec

    return NetworkSpec("unreliable", loss=0.1, staleness=5)


#: Sized so that a run takes about a minute on a host 2.4x slower than
#: the nominal one (see README.md).
WORKLOADS: Dict[str, Workload] = {
    # CPVF's cost varies by about 4% across start placements and FLOOR's
    # by about 20%, so after the first pair only FLOOR deploys.
    "paper-obstacle": Workload(
        "paper-obstacle", 5, _paper_obstacle, later_schemes=("FLOOR",)
    ),
    "churn-lossy": Workload("churn-lossy", 5, _churn_lossy, _lossy_network),
}
