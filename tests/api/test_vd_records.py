"""VOR and Minimax on the simulation engine.

The event-free smoke runs of both schemes are pinned in
``benchmarks/pins/runs.txt``; here a timeline run checks that every move
is charged and that no live sensor ends up inside an obstacle.
"""

import pytest

from repro.baselines import MinimaxScheme, VorScheme
from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.sim import (
    SimulationEngine,
    obstacle_appear,
    obstacle_clear,
    sensor_failure,
    sensor_join,
)


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
