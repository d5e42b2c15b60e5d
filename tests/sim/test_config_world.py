"""Tests for the simulation configuration and world state."""

import pytest

from repro.field import obstacle_free_field, two_obstacle_field
from repro.geometry import Vec2
from repro.network import BASE_STATION_ID
from repro.sensors import SensorState
from repro.sim import SimulationConfig, World


class TestConfig:
    def test_paper_defaults(self):
        config = SimulationConfig()
        assert config.sensor_count == 240
        assert config.max_speed == pytest.approx(2.0)
        assert config.period == pytest.approx(1.0)
        assert config.duration == pytest.approx(750.0)
        assert config.base_station == Vec2(0.0, 0.0)

    def test_max_periods_and_step(self):
        config = SimulationConfig(duration=100.0, period=2.0, max_speed=3.0)
        assert config.max_periods == 50
        assert config.max_step == pytest.approx(6.0)


class TestWorld:
    def make_world(self, count=12):
        config = SimulationConfig(
            sensor_count=count,
            duration=50.0,
            coverage_resolution=20.0,
            seed=5,
        )
        return World.create(config, obstacle_free_field(400.0))

    def test_creation_places_all_sensors(self):
        world = self.make_world()
        assert len(world.sensors) == 12
        assert all(world.field.is_free(s.position) for s in world.sensors)

    def test_explicit_positions_must_match_count(self):
        config = SimulationConfig(sensor_count=3)
        with pytest.raises(ValueError):
            World.create(config, obstacle_free_field(400.0), initial_positions=[Vec2(1, 1)])

    def test_positions_avoid_obstacles(self):
        config = SimulationConfig(sensor_count=30, seed=2, duration=10.0)
        world = World.create(config, two_obstacle_field(500.0))
        assert all(world.field.is_free(s.position) for s in world.sensors)

    def test_coverage_between_zero_and_one(self):
        world = self.make_world()
        assert 0.0 <= world.coverage() <= 1.0

    def test_moving_distance_starts_at_zero(self):
        world = self.make_world()
        assert world.total_moving_distance() == 0.0
        assert world.average_moving_distance() == 0.0

    def test_attach_and_reparent(self):
        world = self.make_world()
        world.attach_to_tree(0, BASE_STATION_ID)
        world.attach_to_tree(1, 0)
        assert world.tree.parent_of(1) == 0
        assert world.sensor(1).state is SensorState.CONNECTED
        assert 1 in world.tree.children_of(0)
        assert world.tree.reparent(1, BASE_STATION_ID)
        assert world.tree.parent_of(1) == BASE_STATION_ID
        assert 1 not in world.tree.children_of(0)

    def test_reparent_rejects_loop(self):
        world = self.make_world()
        world.attach_to_tree(0, BASE_STATION_ID)
        world.attach_to_tree(1, 0)
        assert not world.tree.reparent(0, 1)

    def test_neighbor_table_and_base_station_neighbors(self):
        world = self.make_world(count=20)
        table = world.neighbor_table()
        assert set(table.keys()) == {s.sensor_id for s in world.sensors}
        near = world.sensors_near_base_station()
        for sid in near:
            assert world.sensor(sid).position.distance_to(world.base_station) <= 60.0 + 1e-9

    def test_connected_sensor_ids_reflect_states(self):
        world = self.make_world()
        assert world.connected_sensor_ids() == []
        world.attach_to_tree(3, BASE_STATION_ID)
        assert world.connected_sensor_ids() == [3]
