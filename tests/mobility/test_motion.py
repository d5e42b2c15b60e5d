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

    def test_position_has_no_setter(self):
        model = make_model()
        with pytest.raises(AttributeError):
            model.position = Vec2(1, 1)


def _bits(value: float) -> str:
    return float(value).hex()


class TestMoveToXY:
    """``move_to_xy(x, y)`` is ``move_to(Vec2(x, y))`` bit for bit."""

    EDGE_TARGETS = [
        (0.0, 0.0),
        (-0.0, -0.0),
        (1e-300, -1e-300),
        (5e-324, 5e-324),
        (1e300, -1e300),
        (0.1, 0.2),
        (3.0, 4.0),
        (-123.456, 789.012),
    ]

    @pytest.mark.parametrize("start", [(0.0, 0.0), (-0.0, 0.0), (0.3, -7.1)])
    @pytest.mark.parametrize("target", EDGE_TARGETS)
    def test_edge_inputs(self, start, target):
        charged, floats = clocked_model(*start), clocked_model(*start)
        assert _bits(floats.move_to_xy(*target)) == _bits(
            charged.move_to(Vec2(*target))
        )
        assert [_bits(c) for c in floats.position] == [_bits(c) for c in target]
        assert [_bits(c) for c in charged.position] == [_bits(c) for c in target]
        assert _bits(floats.odometer) == _bits(charged.odometer)
        assert floats.clock.writes == charged.clock.writes == 1
        assert floats.uncharged == charged.uncharged == 0.0

    def test_random_walks_agree(self):
        rng = random.Random(5)
        charged, floats = make_model(), make_model()
        for _ in range(500):
            x, y = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
            charged.move_to(Vec2(x, y))
            floats.move_to_xy(x, y)
            assert floats.position == charged.position
            assert _bits(floats.odometer) == _bits(charged.odometer)


class TestRelocate:
    """An uncharged correction moves the sensor and records itself."""

    def test_records_cause_and_distance_without_charging(self):
        model = clocked_model(0, 0)
        model.move_to(Vec2(3, 4))
        model.relocate(Vec2(6, 8), "obstacle_exit")
        model.relocate(Vec2(6, 8), "arrival")
        model.relocate(Vec2(6, 9), "arrival")
        assert model.position == Vec2(6, 9)
        assert model.odometer == 5.0
        assert model.uncharged == 6.0
        assert model.clock.writes == 4
        assert model.clock.corrections == {"obstacle_exit": 1, "arrival": 2}

    def test_follow_snap_is_an_uncharged_correction(self):
        model = clocked_model(5, 5)
        model.follow(Bug2Path([Vec2(5, 1), Vec2(10, 1)], True))
        assert model.position == Vec2(5, 1)
        assert (model.odometer, model.uncharged) == (0.0, 4.0)
        assert model.clock.corrections == {"path_snap": 1}


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
        while model.has_path:
            total += model.advance_along_path()[2]
        assert total == pytest.approx(10.0)
        assert model.position.almost_equals(Vec2(10, 0))
        assert not model.has_path

    def test_advance_without_path(self):
        model = make_model()
        assert model.advance_along_path() is None

    def test_stop_abandons_path(self):
        model = make_model(0, 0)
        model.follow(self.planner.plan(Vec2(0, 0), Vec2(20, 0)))
        model.stop()
        assert not model.has_path
        assert model.advance_along_path() is None

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
        x, y, travel = model.advance_along_path(distance=0.5)
        assert (x, y, travel) == pytest.approx((0.5, 0.0, 0.5))
        assert model.position == Vec2(x, y)


class TestPositionClock:
    """Only position writes bump the motion model's clock."""

    def test_move_to_bumps_the_clock_once(self):
        model = clocked_model()
        model.move_to(Vec2(3, 4))
        assert model.clock.writes == 1

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

    def test_path_bookkeeping_leaves_the_clock(self):
        model = clocked_model()
        model.follow(Bug2Path([Vec2(0, 0), Vec2(10, 0)], True))
        model.stop()
        model.follow(Bug2Path([Vec2(0, 0), Vec2(0, 10)], True))
        assert model.clock.writes == 0
        assert model.position == Vec2(0, 0)

    def test_fields_repr_and_equality_see_the_position(self):
        a, b = make_model(1, 2), make_model(1, 2)
        assert a == b and "Vec2(1" in repr(a)
        b.relocate(Vec2(2, 2), "test")
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
                _, _, moved = model.advance_along_path(limit)
                assert moved == travel
                assert model.odometer == odometer
                assert model.position == reference_point_at_distance(
                    path.waypoints, progress
                )
                if max(0.0, length - progress) <= 1e-9:
                    assert not model.has_path
                    break


class _PathStepThenCommit:
    """The earlier two-call path advance, kept to pin the merged one: a
    ``path_step`` that charges progress and odometer and returns
    ``(x, y, travel)``, then the caller's commit of ``Vec2(x, y)``."""

    def __init__(self, path: Bug2Path, max_step: float):
        self.path = path
        self.max_step = max_step
        self.length = path.length()
        self.progress = 0.0
        self.odometer = 0.0
        self.position = path.waypoints[0]

    def path_step(self, distance=None):
        if self.path is None:
            return None
        limit = self.max_step if distance is None else min(distance, self.max_step)
        if limit <= 0:
            return None
        travel = min(limit, max(0.0, self.length - self.progress))
        progress = self.progress + travel
        self.progress = progress
        x, y = self.path.point_xy_at_distance(progress)
        self.odometer += travel
        if self.length - progress <= 1e-9:
            self.path = None
            self.progress = 0.0
        return x, y, travel

    def step_and_commit(self, distance=None):
        step = self.path_step(distance)
        if step is not None:
            self.position = Vec2(step[0], step[1])
        return step


class TestMergedPathAdvance:
    """``advance_along_path`` is bit for bit the earlier ``path_step`` plus
    one committed ``Vec2`` per step, and the per-call arc-length formula,
    on multi-segment BUG2 paths that round obstacle corners."""

    def test_steps_match_step_then_commit_and_the_reference(self):
        rng = random.Random(11)
        field = two_obstacle_field(500.0)
        paths = []
        while len(paths) < 20:
            planner = Bug2Planner(field, rng.choice(list(Handedness)))
            start = Vec2(rng.uniform(0, 500), rng.uniform(0, 500))
            path = planner.plan(start, Vec2(rng.uniform(0, 500), rng.uniform(0, 500)))
            if path.encounters and len(path.waypoints) > 3:
                paths.append(path)
        for path in paths:
            speed = rng.uniform(0.5, 4.0)
            model = MotionModel(position=path.waypoints[0], max_speed=speed, period=1.0)
            model.clock = PositionClock()
            model.follow(path)
            old = _PathStepThenCommit(path, speed)
            length = reference_path_length(path.waypoints)
            progress = 0.0
            while model.has_path:
                writes = model.clock.writes
                limit = rng.choice([None, speed, 0.5 * speed, 0.0])
                expected = old.step_and_commit(limit)
                assert model.advance_along_path(limit) == expected
                assert model.position == old.position
                assert model.odometer == old.odometer
                assert model.clock.writes == writes + (expected is not None)
                if expected is not None:
                    progress += expected[2]
                    point = reference_point_at_distance(path.waypoints, progress)
                    assert model.position == point
            assert old.path is None
            assert model.advance_along_path() is None
            assert model.uncharged == 0.0
