"""Tests for the step-based motion model."""

import pytest

from repro.field import Field
from repro.geometry import Vec2
from repro.mobility import Bug2Planner, MotionModel


def make_model(x=0.0, y=0.0, speed=2.0, period=1.0) -> MotionModel:
    return MotionModel(position=Vec2(x, y), max_speed=speed, period=period)


class TestDirectMoves:
    def test_max_step(self):
        assert make_model(speed=2.0, period=1.0).max_step == pytest.approx(2.0)
        assert make_model(speed=3.0, period=2.0).max_step == pytest.approx(6.0)

    def test_move_to_charges_odometer(self):
        model = make_model()
        moved = model.move_to(Vec2(3, 4))
        assert moved == pytest.approx(5.0)
        assert model.odometer == pytest.approx(5.0)
        assert model.position == Vec2(3, 4)


class TestPathFollowing:
    def setup_method(self):
        self.field = Field(1000.0, 1000.0)
        self.planner = Bug2Planner(self.field)

    def test_follow_and_advance(self):
        model = make_model(0, 0)
        path = self.planner.plan(Vec2(0, 0), Vec2(10, 0))
        model.follow(path)
        assert model.has_path
        total = 0.0
        for _ in range(10):
            total += model.advance_along_path()
        assert total == pytest.approx(10.0)
        assert model.position.almost_equals(Vec2(10, 0))
        assert not model.has_path

    def test_advance_without_path(self):
        model = make_model()
        assert model.advance_along_path() == 0.0

    def test_remaining_path_length_decreases(self):
        model = make_model(0, 0)
        model.follow(self.planner.plan(Vec2(0, 0), Vec2(20, 0)))
        before = model.remaining_path_length()
        model.advance_along_path()
        assert model.remaining_path_length() == pytest.approx(before - 2.0)

    def test_stop_abandons_path(self):
        model = make_model(0, 0)
        model.follow(self.planner.plan(Vec2(0, 0), Vec2(20, 0)))
        model.stop()
        assert not model.has_path
        assert model.advance_along_path() == 0.0

    def test_follow_snaps_to_path_start(self):
        model = make_model(5, 5)
        model.follow(self.planner.plan(Vec2(0, 0), Vec2(10, 0)))
        assert model.position.almost_equals(Vec2(0, 0))

    def test_odometer_accumulates_along_path(self):
        model = make_model(0, 0)
        model.follow(self.planner.plan(Vec2(0, 0), Vec2(7, 0)))
        while model.has_path:
            model.advance_along_path()
        assert model.odometer == pytest.approx(7.0)

    def test_advance_with_cap(self):
        model = make_model(0, 0)
        model.follow(self.planner.plan(Vec2(0, 0), Vec2(10, 0)))
        assert model.advance_along_path(distance=0.5) == pytest.approx(0.5)
