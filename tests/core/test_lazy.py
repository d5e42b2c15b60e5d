"""Tests for the lazy-movement strategy."""

import pytest

from repro.core import LazyMovementController
from repro.field import Field
from repro.geometry import Vec2
from repro.mobility import Bug2Planner, MotionModel
from repro.network import MessageStats, MessageType, RoutingCostModel
from repro.sensors import Sensor


def make_sensor(sensor_id: int, x: float, y: float) -> Sensor:
    return Sensor(
        sensor_id=sensor_id,
        motion=MotionModel(position=Vec2(x, y), max_speed=2.0, period=1.0),
        sensing_range=40.0,
    )


def make_controller():
    stats = MessageStats()
    return LazyMovementController(RoutingCostModel(stats)), stats


class TestPathParentChoice:
    def test_chooses_nearest_neighbor_ahead(self):
        controller, _ = make_controller()
        sensor = make_sensor(0, 100, 0)
        ahead_near = make_sensor(1, 80, 0)
        ahead_far = make_sensor(2, 50, 0)
        behind = make_sensor(3, 150, 0)
        choice = controller.choose_path_parent(
            sensor, Vec2(0, 0), [ahead_far, behind, ahead_near]
        )
        assert choice == 1

    def test_no_candidate_when_everyone_is_behind(self):
        controller, _ = make_controller()
        sensor = make_sensor(0, 100, 0)
        behind = make_sensor(1, 150, 0)
        assert controller.choose_path_parent(sensor, Vec2(0, 0), [behind]) is None

    def test_rejected_parents_are_skipped(self):
        controller, _ = make_controller()
        sensor = make_sensor(0, 100, 0)
        sensor.rejected_path_parents.add(1)
        ahead = make_sensor(1, 80, 0)
        assert controller.choose_path_parent(sensor, Vec2(0, 0), [ahead]) is None

    def test_mutual_waiting_is_prevented(self):
        controller, _ = make_controller()
        a = make_sensor(0, 100, 0)
        b = make_sensor(1, 99, 0)
        controller.start_waiting(b, 0)
        # b waits on a, so a may not adopt b.
        assert controller.choose_path_parent(a, Vec2(0, 0), [b]) is None


class TestWaitingAndLoops:
    def test_start_and_stop_waiting(self):
        controller, _ = make_controller()
        sensor = make_sensor(0, 100, 0)
        controller.start_waiting(sensor, 5)
        assert controller.is_waiting(0)
        controller.stop_waiting(sensor)
        assert not controller.is_waiting(0)

    def test_loop_detection_breaks_cycle(self):
        controller, stats = make_controller()
        a, b, c = make_sensor(0, 100, 0), make_sensor(1, 90, 0), make_sensor(2, 80, 0)
        controller.start_waiting(a, 1)
        controller.start_waiting(b, 2)
        controller.start_waiting(c, 0)
        assert controller.check_for_loop(a)
        assert not controller.is_waiting(0)
        assert 1 in a.rejected_path_parents
        assert stats.counts[MessageType.PATH_PARENT_INQUIRY] > 0

    def test_no_loop_keeps_waiting(self):
        controller, _ = make_controller()
        a, b = make_sensor(0, 100, 0), make_sensor(1, 90, 0)
        controller.start_waiting(a, 1)
        assert not controller.check_for_loop(a)
        assert controller.is_waiting(0)

    def test_should_check_for_loop_threshold(self):
        controller, _ = make_controller()
        sensor = make_sensor(0, 100, 0)
        controller.start_waiting(sensor, 1)
        sensor.idle_periods = 1
        assert not controller.should_check_for_loop(sensor)
        sensor.idle_periods = 5
        assert controller.should_check_for_loop(sensor)


class TestAdvanceTowardConnection:
    def test_walks_when_no_candidate(self):
        controller, _ = make_controller()
        field = Field(400, 400)
        planner = Bug2Planner(field)
        sensor = make_sensor(0, 100, 100)
        controller.advance_toward_connection(
            sensor, Vec2(0, 0), [], lambda: planner.plan(sensor.position, Vec2(0, 0))
        )
        assert sensor.moving_distance == pytest.approx(2.0)

    def test_waits_behind_path_parent(self):
        controller, _ = make_controller()
        field = Field(400, 400)
        planner = Bug2Planner(field)
        sensor = make_sensor(0, 100, 0)
        ahead = make_sensor(1, 80, 0)
        controller.advance_toward_connection(
            sensor,
            Vec2(0, 0),
            [ahead],
            lambda: planner.plan(sensor.position, Vec2(0, 0)),
        )
        assert sensor.moving_distance == 0.0
        assert controller.is_waiting(0)
        assert sensor.idle_periods == 1

    def test_resumes_when_path_parent_disappears(self):
        controller, _ = make_controller()
        field = Field(400, 400)
        planner = Bug2Planner(field)
        sensor = make_sensor(0, 100, 0)
        ahead = make_sensor(1, 80, 0)
        plan = lambda: planner.plan(sensor.position, Vec2(0, 0))
        controller.advance_toward_connection(sensor, Vec2(0, 0), [ahead], plan)
        assert controller.is_waiting(0)
        # Next period the neighbour has moved away (no longer in the list).
        controller.advance_toward_connection(sensor, Vec2(0, 0), [], plan)
        assert not controller.is_waiting(0)
        assert sensor.moving_distance == pytest.approx(2.0)
