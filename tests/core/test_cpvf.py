"""Integration-style tests for the CPVF scheme."""

import pytest

from repro.core import CPVFScheme
from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.network import BASE_STATION_ID
from repro.sensors import SensorState
from repro.sim import SimulationEngine


def run_cpvf(rc=60.0, rs=40.0, with_obstacles=False, seed=1, **scheme_kwargs):
    world = make_scenario(
        SMOKE_SCALE,
        communication_range=rc,
        sensing_range=rs,
        seed=seed,
        layout="two-obstacle" if with_obstacles else "obstacle-free",
    ).build_world()
    scheme = CPVFScheme(**scheme_kwargs)
    engine = SimulationEngine(world, scheme, trace_every=20)
    return engine.run(), world


class TestCPVFEndToEnd:
    def test_network_becomes_and_stays_connected(self):
        result, world = run_cpvf()
        assert result.connected
        assert all(s.is_connected() for s in world.sensors)

    def test_coverage_improves_over_initial_layout(self):
        world = make_scenario(SMOKE_SCALE, seed=2).build_world()
        initial_coverage = world.coverage()
        scheme = CPVFScheme()
        result = SimulationEngine(world, scheme).run()
        assert result.final_coverage >= initial_coverage

    def test_tree_structure_is_consistent(self):
        result, world = run_cpvf(seed=3)
        world.tree.validate()
        for sensor in world.sensors:
            if sensor.is_connected():
                assert sensor.sensor_id in world.tree

    def test_tree_links_respect_communication_range(self):
        result, world = run_cpvf(seed=4)
        rc = world.config.communication_range
        for sensor in world.sensors:
            parent = world.tree.parent_of(sensor.sensor_id)
            if parent is None or parent == BASE_STATION_ID:
                continue
            assert sensor.position.distance_to(world.sensor(parent).position) <= rc + 1e-6

    def test_sensors_stay_in_free_space(self):
        result, world = run_cpvf(with_obstacles=True, seed=5)
        for sensor in world.sensors:
            assert world.field.is_free(sensor.position)

    def test_messages_are_recorded(self):
        result, _ = run_cpvf(seed=6)
        assert result.total_messages > 0

    def test_small_rc_reduces_coverage(self):
        large_rc, _ = run_cpvf(rc=60.0, rs=40.0, seed=7)
        small_rc, _ = run_cpvf(rc=20.0, rs=40.0, seed=7)
        assert small_rc.final_coverage < large_rc.final_coverage

    def test_oscillation_avoidance_reduces_moving_distance(self):
        plain, _ = run_cpvf(seed=8)
        damped, _ = run_cpvf(seed=8, oscillation_delta=2.0)
        assert damped.average_moving_distance <= plain.average_moving_distance + 1e-6

    def test_never_reports_convergence(self):
        result, _ = run_cpvf(seed=9)
        assert result.converged_at is None

    def test_disconnected_sensors_move_toward_base_station(self):
        world = make_scenario(
            SMOKE_SCALE,
            communication_range=25.0,
            sensing_range=40.0,
            seed=10,
        ).build_world()
        scheme = CPVFScheme()
        scheme.initialize(world)
        moving = [s for s in world.sensors if s.state is SensorState.MOVING_TO_CONNECT]
        if not moving:
            pytest.skip("all sensors started connected in this draw")
        before = {s.sensor_id: s.position.distance_to(world.base_station) for s in moving}
        for period in range(30):
            world.period_index = period
            scheme.step(world)
        progressed = 0
        for s in moving:
            if s.is_connected() or s.position.distance_to(world.base_station) < before[s.sensor_id] - 1e-6:
                progressed += 1
        assert progressed >= len(moving) // 2
