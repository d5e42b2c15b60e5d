"""Tests for the sensor node model and its states."""

import pytest

from repro.geometry import Vec2
from repro.mobility import MotionModel
from repro.sensors import CONNECTED_STATES, Sensor, SensorState


def make_sensor(rs=40.0) -> Sensor:
    return Sensor(
        sensor_id=7,
        motion=MotionModel(position=Vec2(10, 20), max_speed=2.0, period=1.0),
        sensing_range=rs,
    )


class TestSensor:
    def test_initial_state_is_disconnected(self):
        assert make_sensor().state is SensorState.DISCONNECTED
        assert not make_sensor().is_connected()

    def test_position_delegates_to_motion(self):
        sensor = make_sensor()
        assert sensor.position == Vec2(10, 20)
        sensor.motion.relocate(Vec2(0, 0), "test")
        assert sensor.position == Vec2(0, 0)
        with pytest.raises(AttributeError):
            sensor.position = Vec2(1, 1)

    def test_moving_distance_tracks_odometer(self):
        sensor = make_sensor()
        sensor.motion.move_to(Vec2(13, 24))
        assert sensor.moving_distance == pytest.approx(5.0)


class TestSensorState:
    def test_connected_states(self):
        assert SensorState.CONNECTED.is_connected()
        assert SensorState.FIXED.is_connected()
        assert SensorState.MOVABLE.is_connected()
        assert SensorState.RELOCATING.is_connected()

    def test_disconnected_states(self):
        assert not SensorState.DISCONNECTED.is_connected()
        assert not SensorState.MOVING_TO_CONNECT.is_connected()

    @pytest.mark.parametrize("state", list(SensorState), ids=lambda s: s.name)
    def test_truth_table(self, state):
        """Connected for exactly CONNECTED, FIXED, MOVABLE and RELOCATING
        (by name, so the shared tuple is checked rather than restated)."""
        expected = state.name in ("CONNECTED", "FIXED", "MOVABLE", "RELOCATING")
        assert state.is_connected() is expected
        assert (state in CONNECTED_STATES) is expected

    @pytest.mark.parametrize("state", list(SensorState), ids=lambda s: s.name)
    def test_sensor_predicate_follows_its_state(self, state):
        sensor = make_sensor()
        sensor.state = state
        assert sensor.is_connected() is state.is_connected()
        assert sensor.is_connected() is (
            state
            in {
                SensorState.CONNECTED,
                SensorState.FIXED,
                SensorState.MOVABLE,
                SensorState.RELOCATING,
            }
        )
