"""Tests for the BUG2 path planner."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.field import Field, Obstacle, two_obstacle_field
from repro.geometry import Segment, Vec2
from repro.mobility import Bug2Path, Bug2Planner, Handedness
from repro.mobility.bug2 import _nearest_edge
from repro.experiments.common import SMOKE_SCALE, make_scenario
from tests.oracles import (
    AllObstacleBug2Planner,
    reference_nearest_edge,
    reference_path_length,
    reference_point_at_distance,
)


def bug2_bound(field: Field, start: Vec2, target: Vec2) -> float:
    """BUG2's worst-case path length ``D + sum_i n_i * l_i / 2``.

    ``D`` is the start-target distance, ``n_i`` the number of times the
    reference line crosses obstacle ``i`` and ``l_i`` its perimeter.
    """
    reference = Segment(start, target)
    bound = start.distance_to(target)
    for ob in field.obstacles:
        crossings = len(ob.polygon.segment_intersections(reference))
        bound += crossings * ob.polygon.perimeter() / 2.0
    return bound


@pytest.fixture
def empty_field() -> Field:
    return Field(1000.0, 1000.0)


@pytest.fixture
def field_with_block() -> Field:
    return Field(1000.0, 1000.0, [Obstacle.rectangle(400, 400, 600, 600)])


class TestStraightLine:
    def test_unobstructed_path_is_straight(self, empty_field):
        planner = Bug2Planner(empty_field)
        path = planner.plan(Vec2(100, 100), Vec2(900, 900))
        assert path.reached_target
        assert path.encounters == 0
        assert path.length() == pytest.approx(Vec2(100, 100).distance_to(Vec2(900, 900)))

    def test_zero_length_path(self, empty_field):
        planner = Bug2Planner(empty_field)
        path = planner.plan(Vec2(100, 100), Vec2(100, 100))
        assert path.reached_target
        assert path.length() == pytest.approx(0.0)

    def test_path_point_at_distance(self, empty_field):
        planner = Bug2Planner(empty_field)
        path = planner.plan(Vec2(0, 0), Vec2(100, 0))
        assert Vec2(*path.point_xy_at_distance(25)).almost_equals(Vec2(25, 0))
        assert Vec2(*path.point_xy_at_distance(1e9)).almost_equals(Vec2(100, 0))
        assert Vec2(*path.point_xy_at_distance(-5)).almost_equals(Vec2(0, 0))


class TestObstacleAvoidance:
    def test_path_goes_around_obstacle(self, field_with_block):
        planner = Bug2Planner(field_with_block)
        path = planner.plan(Vec2(100, 500), Vec2(900, 500))
        assert path.reached_target
        assert path.encounters >= 1
        # The path must be longer than the straight line but bounded by BUG2's
        # worst case D + n*l/2.
        direct = Vec2(100, 500).distance_to(Vec2(900, 500))
        assert path.length() > direct
        assert path.length() <= bug2_bound(
            field_with_block, Vec2(100, 500), Vec2(900, 500)
        ) + 10.0

    def test_waypoints_stay_in_free_space(self, field_with_block):
        planner = Bug2Planner(field_with_block)
        path = planner.plan(Vec2(100, 500), Vec2(900, 500))
        for waypoint in path.waypoints:
            assert field_with_block.is_free(waypoint)

    def test_path_segments_do_not_cross_obstacles(self, field_with_block):
        planner = Bug2Planner(field_with_block)
        path = planner.plan(Vec2(100, 450), Vec2(900, 550))
        for a, b in zip(path.waypoints, path.waypoints[1:]):
            assert not field_with_block.segment_blocked(Segment(a, b))

    def test_left_and_right_hand_rules_detour_to_different_sides(self, field_with_block):
        right = Bug2Planner(field_with_block, Handedness.RIGHT)
        left = Bug2Planner(field_with_block, Handedness.LEFT)
        start, target = Vec2(100, 500), Vec2(900, 500)
        right_path = right.plan(start, target)
        left_path = left.plan(start, target)
        assert right_path.reached_target and left_path.reached_target
        right_ys = [p.y for p in right_path.waypoints[1:-1]]
        left_ys = [p.y for p in left_path.waypoints[1:-1]]
        if right_ys and left_ys:
            assert (max(right_ys) > 600) != (max(left_ys) > 600)

    def test_two_obstacle_canonical_field(self):
        field = two_obstacle_field()
        planner = Bug2Planner(field)
        # From inside the cluster quadrant past both obstacles.
        path = planner.plan(Vec2(300, 300), Vec2(900, 900))
        assert path.reached_target
        for a, b in zip(path.waypoints, path.waypoints[1:]):
            assert not field.segment_blocked(Segment(a, b))

    def test_start_inside_obstacle_is_projected_out(self, field_with_block):
        planner = Bug2Planner(field_with_block)
        path = planner.plan(Vec2(500, 500), Vec2(100, 100))
        assert field_with_block.is_free(path.waypoints[0])
        assert path.reached_target


class TestRandomizedCourses:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_rectangles_are_circumnavigated(self, seed):
        rng = random.Random(seed)
        # One random rectangular obstacle strictly inside the field.
        x0 = rng.uniform(200, 600)
        y0 = rng.uniform(200, 600)
        w = rng.uniform(50, 250)
        h = rng.uniform(50, 250)
        field = Field(1000.0, 1000.0, [Obstacle.rectangle(x0, y0, x0 + w, y0 + h)])
        planner = Bug2Planner(field)
        start = Vec2(50, 50)
        target = Vec2(950, 950)
        path = planner.plan(start, target)
        assert path.reached_target
        assert path.length() <= bug2_bound(field, start, target) + 10.0
        for a, b in zip(path.waypoints, path.waypoints[1:]):
            assert not field.segment_blocked(Segment(a, b))


class TestCachedSegmentLengths:
    """``Bug2Path`` measures its segments once; its length and arc-length
    points equal the per-call formulas bit for bit."""

    @staticmethod
    def _random_polyline(rng):
        points = [Vec2(rng.uniform(0, 500), rng.uniform(0, 500))]
        for _ in range(rng.randrange(0, 8)):
            roll = rng.random()
            last = points[-1]
            if roll < 0.15:
                points.append(last)  # zero-length segment
            elif roll < 0.3:
                points.append(Vec2(last.x + rng.uniform(-1e-9, 1e-9), last.y))
            else:
                points.append(Vec2(rng.uniform(0, 500), rng.uniform(0, 500)))
        return points

    def test_random_polylines_match_the_per_call_formulas(self):
        rng = random.Random(11)
        for _ in range(300):
            waypoints = self._random_polyline(rng)
            path = Bug2Path(list(waypoints), True)
            length = reference_path_length(waypoints)
            assert path.length() == length
            # Cumulative segment ends, the ends themselves, beyond the end
            # and before the start.
            distances = [0.0, -1.0, length, length + 5.0]
            running = 0.0
            for a, b in zip(waypoints, waypoints[1:]):
                running += a.distance_to(b)
                distances += [running, running - 1e-9, running + 1e-9]
            distances += [rng.uniform(0, length) for _ in range(10)]
            for distance in distances:
                assert Vec2(*path.point_xy_at_distance(distance)) == (
                    reference_point_at_distance(waypoints, distance)
                )

    def test_planned_paths_match_the_per_call_formulas(self):
        rng = random.Random(4)
        field = two_obstacle_field(500.0)
        for handedness in Handedness:
            planner = Bug2Planner(field, handedness)
            for _ in range(20):
                start = Vec2(rng.uniform(0, 500), rng.uniform(0, 500))
                target = Vec2(rng.uniform(0, 500), rng.uniform(0, 500))
                path = planner.plan(start, target)
                length = reference_path_length(path.waypoints)
                assert path.length() == length
                for k in range(41):
                    distance = length * k / 40
                    assert Vec2(*path.point_xy_at_distance(distance)) == (
                        reference_point_at_distance(path.waypoints, distance)
                    )


class TestObstacleScans:
    """The planner's box-filtered leg scan and float nearest-edge search
    answer exactly what the all-obstacle and ``Segment`` forms answer."""

    def test_nearest_edge_matches_segment_distances(self):
        rng = random.Random(3)
        for _ in range(400):
            points = [
                Vec2(rng.choice([0.0, 10.0, rng.uniform(0, 50)]), rng.uniform(0, 50))
                for _ in range(rng.randint(2, 7))
            ]
            if rng.random() < 0.3:
                points.insert(rng.randrange(len(points)), points[0])  # zero-length
            edges = [
                Segment(a, b) for a, b in zip(points, points[1:] + points[:1])
            ]
            probes = points + [
                Vec2(rng.uniform(-10, 60), rng.uniform(-10, 60)) for _ in range(5)
            ]
            for p in probes:
                assert _nearest_edge(edges, p) == reference_nearest_edge(edges, p)

    @pytest.mark.parametrize(
        "layout", ["random-obstacles", "clutter", "maze", "rooms", "spiral"]
    )
    def test_plans_match_the_all_obstacle_planner(self, layout):
        rng = random.Random(layout)
        params = {"min_obstacles": 4} if layout == "random-obstacles" else {}
        for seed in range(3):
            field = make_scenario(
                SMOKE_SCALE, seed=seed, layout=layout, layout_params=params
            ).build_field()
            size = field.width
            for handedness in Handedness:
                planner = Bug2Planner(field, handedness)
                reference = AllObstacleBug2Planner(field, handedness)
                for _ in range(15):
                    start = Vec2(rng.uniform(0, size), rng.uniform(0, size))
                    target = Vec2(rng.uniform(0, size), rng.uniform(0, size))
                    assert planner.plan(start, target) == reference.plan(
                        start, target
                    )
