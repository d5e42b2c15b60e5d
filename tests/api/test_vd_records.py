"""VOR and Minimax records on the simulation engine.

The goldens pin event-free records at smoke scale: final positions
(sha256 over ``float.hex``) and coverage exactly, total moving distance
to 1e-12 relative (the odometers add the explosion and the round moves
in a fixed order, but a refactor may regroup the sums), and the
base-station-free ``connected``.
"""

import hashlib

import pytest

from repro.api import RunSpec, execute_run
from repro.baselines import MinimaxScheme, VorScheme
from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.sim import (
    SimulationEngine,
    obstacle_appear,
    obstacle_clear,
    sensor_failure,
    sensor_join,
)

GOLDEN = {
    ("VOR", "obstacle-free", 1): ("652deaebd687df29a465a429d464144a", 0.7, 9985.553099340807, False),
    ("VOR", "obstacle-free", 2): ("72c75d52335086e22d4132f17bd08632", 0.6875, 9903.609649000733, False),
    ("VOR", "obstacle-free", 3): ("c44c7b50c3d3486f3589ff0f1a88f397", 0.6625, 9762.166268501558, True),
    ("VOR", "two-obstacle", 1): ("c8eb4aadca11735cc1429c14c39ddac6", 0.6458333333333334, 10255.3344383683, False),
    ("VOR", "two-obstacle", 2): ("96696f19a8dd7cc77892be47d0379eb2", 0.6953125, 9881.781173867757, False),
    ("VOR", "two-obstacle", 3): ("3688e53cb55a6fdb52ca2a130ebe21ae", 0.6614583333333334, 9884.59764111385, True),
    ("Minimax", "obstacle-free", 1): ("4832931cc3773b7048c60f1eb047308d", 0.175, 20569.130009343982, False),
    ("Minimax", "obstacle-free", 2): ("6d98db067f4e7cf562acc0f7505590bf", 0.48, 18729.941136587924, False),
    ("Minimax", "obstacle-free", 3): ("dcedc78fd7b9d5c49b59e48deceb1121", 0.49, 18464.27717260298, False),
    ("Minimax", "two-obstacle", 1): ("6e8c288348cc43d482831e42abd4a0fc", 0.24739583333333334, 19289.296735774653, False),
    ("Minimax", "two-obstacle", 2): ("612c90a529c6f7f899d624373d1a4d90", 0.3385416666666667, 19704.93401347454, False),
    ("Minimax", "two-obstacle", 3): ("f6ce960dbe0bb2f8ea6125e5ff454d7d", 0.22395833333333334, 18196.306399592635, False),
}


def positions_digest(points):
    h = hashlib.sha256()
    for x, y in points:
        h.update(f"{x.hex()},{y.hex()};".encode())
    return h.hexdigest()[:32]


@pytest.mark.parametrize("scheme,layout,seed", sorted(GOLDEN))
def test_static_record_matches_golden(scheme, layout, seed):
    digest, coverage, distance, connected = GOLDEN[scheme, layout, seed]
    scenario = make_scenario(SMOKE_SCALE, seed=seed, layout=layout)
    record = execute_run(
        RunSpec(scenario=scenario, scheme=scheme, keep_positions=True)
    )
    assert positions_digest(record.final_positions) == digest
    assert record.coverage == coverage
    assert record.total_moving_distance == pytest.approx(distance, rel=1e-12)
    assert record.connected is connected
    assert record.total_messages == 0


@pytest.mark.parametrize("scheme_class", [VorScheme, MinimaxScheme])
def test_timeline_run_stays_free_and_charges_every_move(scheme_class):
    """Every change of a live sensor's position — Voronoi round, explosion
    or an escape from an appearing obstacle — reaches its odometer, and no
    live sensor is ever inside an obstacle."""
    size = SMOKE_SCALE.field_size
    events = (
        # Over the middle of the field, where the explosion put sensors.
        obstacle_appear(12, 0.3 * size, 0.3 * size, 0.7 * size, 0.7 * size),
        sensor_join(20, count=5),
        sensor_failure(30, count=4),
        obstacle_clear(50, index=2),
    )
    scenario = make_scenario(
        SMOKE_SCALE, seed=2, layout="two-obstacle", events=events
    )
    seen = {}
    displaced = []

    def check(world):
        for sensor in world.alive_sensors():
            assert world.field.is_free(sensor.position)
            last = seen.get(sensor.sensor_id)
            if last is not None and sensor.position != last[0]:
                moved = sensor.position.distance_to(last[0])
                assert sensor.moving_distance - last[1] >= moved - 1e-9
            seen[sensor.sensor_id] = (sensor.position, sensor.moving_distance)

    class Checked(scheme_class):
        def step(self, world):
            before = {sid: p for sid, (p, _) in seen.items()}
            check(world)
            displaced.extend(
                sid for sid, p in before.items() if seen[sid][0] != p
            )
            super().step(world)
            check(world)

    world = scenario.build_world()
    result = SimulationEngine(world, Checked(), events=events).run()
    check(world)
    assert [e.kind for e in result.events] == [e.kind for e in events]
    # The appearing obstacle swallowed someone, and the escape was charged.
    assert displaced
