"""No straight move passes through an obstacle.

BUG2's line-of-sight checks and CPVF's move clip both ask the exact
straight-move kernel (``Polygon.first_entry_xy``).  Pinned here:

* FLOOR's relocations on the two-obstacle fields follow paths that stay
  in free space, so no relocation step needs an uncharged correction:
  the golden two-obstacle smoke run and every seed-1 FLOOR deployment of
  the two e2ebench workloads record no ``relocation_step`` correction
  and no uncharged distance;
* every position CPVF's force phase commits, on each smoke layout and
  the two-obstacle field, is in the field and reached without entering
  an obstacle's interior, judged by the ``Fraction`` reference
  (``tests/oracles/entry.py``).
"""

import pytest

from benchmarks.pins import LAYOUTS, pinned_runs
from repro.api import RunSpec, execute_run
from repro.core import CPVFScheme
from repro.experiments.common import SMOKE_SCALE, make_scenario
from tests.oracles import segment_entry_error

#: The golden two-obstacle smoke FLOOR run and the seed-1 e2ebench
#: FLOOR deployments.
FLOOR_RUNS = {
    run: (scenario, network)
    for run, scheme, scenario, network in pinned_runs()
    if scheme == "FLOOR"
    and run.split()[:2]
    in (["smoke-two-obstacle", "1"], ["paper-obstacle", "1"], ["churn-lossy", "1"])
}


@pytest.mark.parametrize("run", sorted(FLOOR_RUNS))
def test_floor_relocations_need_no_correction(run):
    scenario, network = FLOOR_RUNS[run]
    record = execute_run(
        RunSpec(scenario=scenario, scheme="FLOOR", network=network, profile=True)
    )
    counters = record.telemetry.counters
    assert counters.get("motion.corrections.relocation_step", 0) == 0
    assert counters["motion.uncharged_mm"] == 0


def test_the_floor_runs_are_the_ones_meant():
    assert len(FLOOR_RUNS) == 11


@pytest.mark.parametrize(
    "layout, params", list(LAYOUTS) + [("two-obstacle", {})], ids=lambda v: str(v)
)
def test_cpvf_force_moves_stay_in_free_space(layout, params, monkeypatch):
    moves = []
    apply_forces = CPVFScheme._apply_virtual_forces

    def recording(self, world, *args):
        before = [sensor.position for sensor in world.sensors]
        apply_forces(self, world, *args)
        moves.extend(
            (a, sensor.position)
            for a, sensor in zip(before, world.sensors)
            if sensor.position != a
        )

    monkeypatch.setattr(CPVFScheme, "_apply_virtual_forces", recording)
    scenario = make_scenario(SMOKE_SCALE, seed=1, layout=layout, layout_params=params)
    execute_run(RunSpec(scenario=scenario, scheme="CPVF"))
    field = scenario.build_field()
    assert moves
    for a, b in moves:
        assert 0.0 <= b.x <= field.width and 0.0 <= b.y <= field.height
        for xmin, ymin, xmax, ymax, polygon in field.obstacle_table():
            if (
                max(a.x, b.x) < xmin
                or min(a.x, b.x) > xmax
                or max(a.y, b.y) < ymin
                or min(a.y, b.y) > ymax
            ):
                continue  # the reject box: no point of the move is near
            assert segment_entry_error(polygon, a.x, a.y, b.x, b.y, None) is None, (
                layout,
                a,
                b,
            )
