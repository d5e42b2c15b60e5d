"""Ablation benchmark: FLOOR's expansion-priority ordering (Section 5.5.1).

FLOOR ranks floor-line-guided (FLG) expansion above boundary-guided (BLG)
and inter-floor (IFLG) infill because frontier points improve coverage most
per relocation.  The ablation compares the default priority ordering with a
variant that advertises every expansion point indiscriminately.
"""

import pytest

from repro.core import FloorScheme
from repro.experiments.common import make_scenario
from repro.sim import SimulationEngine


class _NoPriorityFloor(FloorScheme):
    """FLOOR variant that does not rank expansion kinds against each other."""

    name = "FLOOR-no-priority"

    def _run_expansion_round(self, world):  # noqa: D102
        # Temporarily neutralise the priority filter by monkeypatching the
        # kind comparison: keep every expansion point that was discovered.
        original = FloorScheme._run_expansion_round
        # Re-implement the round without the highest-priority-only filter.
        assert self._expansion is not None and self._registry is not None
        assert self._invitations is not None
        from repro.sensors import SensorState

        expansion_points = []
        exhausted = []
        ids = sorted(self._active_searchers)
        for searcher_id, position in zip(ids, self._searcher_positions(world, ids)):
            if position is None:
                exhausted.append(searcher_id)
                continue
            points = self._expansion.expansion_points(searcher_id, position)
            if not points:
                exhausted.append(searcher_id)
                continue
            expansion_points.extend(points)
        for searcher_id in exhausted:
            self._active_searchers.discard(searcher_id)
        if not expansion_points:
            return
        movable = [
            s
            for s in world.sensors
            if s.state is SensorState.MOVABLE and s.sensor_id not in self._relocations
        ]
        assignments = self._invitations.run_round(
            expansion_points, movable, len(world.connected_sensor_ids()), world.tree
        )
        for assignment in assignments:
            self._start_relocation(world, assignment.movable_id, assignment.expansion_point)


def _coverage(scheme_cls, scale, seed):
    world = make_scenario(
        scale,
        communication_range=60.0,
        sensing_range=40.0,
        seed=seed,
    ).build_world()
    result = SimulationEngine(world, scheme_cls()).run()
    return result.final_coverage


@pytest.mark.benchmark(group="ablation")
def test_expansion_priority_helps_coverage(benchmark, sweep_scale, run_once):
    def run_pair():
        prioritised = _coverage(FloorScheme, sweep_scale, seed=6)
        unprioritised = _coverage(_NoPriorityFloor, sweep_scale, seed=6)
        return prioritised, unprioritised

    prioritised, unprioritised = run_once(benchmark, run_pair)
    print()
    print(f"coverage: prioritised={prioritised:.1%}, unprioritised={unprioritised:.1%}")
    # Prioritising frontier expansion should not hurt coverage.
    assert prioritised >= unprioritised - 0.05
