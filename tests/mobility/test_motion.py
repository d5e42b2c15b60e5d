"""Tests for the step-based motion model."""

import random

import pytest

from repro.field import Field, two_obstacle_field
from repro.geometry import Vec2
from repro.mobility import (
    Bug2Path,
    Bug2Planner,
    Handedness,
    MotionModel,
    PositionClock,
)
from tests.oracles import reference_path_length, reference_point_at_distance


def make_model(x=0.0, y=0.0, speed=2.0, period=1.0) -> MotionModel:
    return MotionModel(position=Vec2(x, y), max_speed=speed, period=period)


def clocked_model(x=0.0, y=0.0) -> MotionModel:
    """A model with a clock of its own, started after construction."""
    model = make_model(x, y)
    model.clock = PositionClock()
    return model


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


class TestPositionClock:
    """Only ``position`` assignments bump the motion model's clock."""

    def test_move_to_bumps_the_clock_once(self):
        model = clocked_model()
        model.move_to(Vec2(3, 4))
        assert model.clock.writes == 1

    def test_direct_assignment_bumps_the_clock(self):
        model = clocked_model()
        model.position = Vec2(1, 1)
        model.position = Vec2(1, 1)
        assert model.clock.writes == 2

    def test_follow_snaps_and_bumps_only_when_off_the_path_start(self):
        model = clocked_model(0, 0)
        model.follow(Bug2Path([Vec2(0, 0), Vec2(10, 0)], True))
        assert model.clock.writes == 0
        model.follow(Bug2Path([Vec2(5, 5), Vec2(10, 0)], True))
        assert model.position == Vec2(5, 5)
        assert model.clock.writes == 1

    def test_advance_bumps_once_per_step(self):
        model = clocked_model(0, 0)
        model.follow(Bug2Path([Vec2(0, 0), Vec2(10, 0)], True))
        model.advance_along_path()
        assert model.clock.writes == 1

    def test_odometer_and_path_writes_leave_the_clock(self):
        model = clocked_model()
        model.odometer = 12.5
        model.odometer += 1.0
        model._path = Bug2Path([Vec2(0, 0), Vec2(10, 0)], True)
        model._path_progress = 3.0
        model._path_length = 10.0
        model.stop()
        assert model.clock.writes == 0
        assert model.position == Vec2(0, 0)

    def test_fields_repr_and_equality_see_the_position(self):
        a, b = make_model(1, 2), make_model(1, 2)
        assert a == b and "Vec2(1" in repr(a)
        b.position = Vec2(2, 2)
        assert a != b


class TestAdvanceParity:
    """Stepping along a path equals the per-call arc-length formulas."""

    def test_steps_match_the_per_call_formulas(self):
        rng = random.Random(9)
        field = two_obstacle_field(500.0)
        planner = Bug2Planner(field, Handedness.LEFT)
        for _ in range(30):
            start = Vec2(rng.uniform(0, 500), rng.uniform(0, 500))
            path = planner.plan(start, Vec2(rng.uniform(0, 500), rng.uniform(0, 500)))
            model = MotionModel(
                position=path.waypoints[0], max_speed=rng.uniform(0.5, 4.0), period=1.0
            )
            model.follow(path)
            length = reference_path_length(path.waypoints)
            progress = 0.0
            odometer = 0.0
            while True:
                limit = model.max_step * rng.choice([1.0, 1.0, 0.5])
                travel = min(limit, max(0.0, length - progress))
                progress += travel
                odometer += travel
                moved = model.advance_along_path(limit)
                assert moved == travel
                assert model.odometer == odometer
                assert model.position == reference_point_at_distance(
                    path.waypoints, progress
                )
                if max(0.0, length - progress) <= 1e-9:
                    assert not model.has_path
                    break


class TestFloatPathStep:
    """``path_step`` with one committed ``Vec2`` per step is bit for bit
    ``advance_along_path`` and the per-call arc-length formula on BUG2
    paths that round obstacle corners."""

    def test_steps_match_advance_and_the_reference(self):
        rng = random.Random(11)
        field = two_obstacle_field(500.0)
        paths = []
        while len(paths) < 20:
            planner = Bug2Planner(field, rng.choice(list(Handedness)))
            start = Vec2(rng.uniform(0, 500), rng.uniform(0, 500))
            path = planner.plan(start, Vec2(rng.uniform(0, 500), rng.uniform(0, 500)))
            if path.encounters:
                paths.append(path)
        for path in paths:
            speed = rng.uniform(0.5, 4.0)
            stepped, advanced = (
                MotionModel(position=path.waypoints[0], max_speed=speed, period=1.0)
                for _ in range(2)
            )
            stepped.clock, advanced.clock = PositionClock(), PositionClock()
            stepped.follow(path)
            advanced.follow(path)
            length = reference_path_length(path.waypoints)
            progress = 0.0
            odometer = 0.0
            while stepped.has_path:
                writes = stepped.clock.writes
                limit = rng.choice([None, speed, 0.5 * speed])
                x, y, travel = stepped.path_step(limit)
                stepped.position = Vec2(x, y)
                cap = speed if limit is None else limit
                expected = min(cap, max(0.0, length - progress))
                progress += expected
                odometer += expected
                assert advanced.advance_along_path(limit) == travel == expected
                point = reference_point_at_distance(path.waypoints, progress)
                assert stepped.position == advanced.position == point
                assert stepped.odometer == advanced.odometer == odometer
                assert stepped.clock.writes == advanced.clock.writes == writes + 1
            assert not advanced.has_path
            assert stepped.path_step() is None
