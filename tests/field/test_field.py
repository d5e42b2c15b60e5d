"""Tests for the field model."""

import random

import pytest

from repro.field import Field, Obstacle
from repro.geometry import Polygon, Segment, Vec2
from repro.scenarios import ScenarioValidator
from repro.scenarios import clutter_field
from tests.oracles import (
    Circle,
    reference_boundary_segments_within,
    reference_nearest_free,
)


@pytest.fixture
def empty_field() -> Field:
    return Field(100.0, 100.0)


@pytest.fixture
def field_with_block() -> Field:
    return Field(100.0, 100.0, [Obstacle.rectangle(40, 40, 60, 60)])


class TestBasics:
    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Field(-1.0, 10.0)

    def test_dimensions_and_area(self, empty_field):
        assert (empty_field.width, empty_field.height) == (100.0, 100.0)
        assert empty_field.area() == pytest.approx(10000.0)

    def test_boundary_edges(self, empty_field):
        assert len(empty_field.boundary_polygon().edges()) == 4

    def test_with_obstacles_copy(self, empty_field):
        modified = empty_field.with_obstacles([Obstacle.rectangle(0, 0, 10, 10)])
        assert len(modified.obstacles) == 1
        assert len(empty_field.obstacles) == 0


class TestBoundaryRectangle:
    """The field rectangle is built once and shared by every boundary query."""

    @pytest.mark.parametrize(
        "width,height", [(100.0, 100.0), (300.0, 150.0), (1.5, 1000.0)]
    )
    def test_rectangle_matches_the_dimensions(self, width, height):
        field = Field(width, height)
        polygon = field.boundary_polygon()
        assert set(polygon.vertices) == {
            Vec2(0, 0),
            Vec2(width, 0),
            Vec2(width, height),
            Vec2(0, height),
        }
        assert polygon.area() == pytest.approx(width * height)
        assert polygon.bounding_box() == (0.0, 0.0, width, height)

    def test_same_polygon_and_edges_on_every_call(self, empty_field):
        polygon = empty_field.boundary_polygon()
        assert empty_field.boundary_polygon() is polygon
        assert empty_field.boundary_polygon().edges() is polygon.edges()

    def test_obstacle_changes_leave_the_boundary(self, empty_field):
        polygon = empty_field.boundary_polygon()
        index = empty_field.add_obstacle(Obstacle.rectangle(10, 10, 20, 20))
        assert empty_field.boundary_polygon() is polygon
        empty_field.remove_obstacle(index)
        assert empty_field.boundary_polygon() is polygon
        assert len(polygon.edges()) == 4

    def test_with_obstacles_has_an_equal_rectangle(self, empty_field):
        modified = empty_field.with_obstacles([Obstacle.rectangle(0, 0, 10, 10)])
        assert modified.boundary_polygon() == empty_field.boundary_polygon()


class TestPointQueries:
    def test_bounds_are_the_closed_field_rectangle(self, empty_field):
        assert empty_field.is_free(Vec2(50, 50))
        assert empty_field.is_free(Vec2(0, 100))
        assert not empty_field.is_free(Vec2(150, 50))
        assert not empty_field.is_free(Vec2(50, -1e-9))

    def test_is_free(self, field_with_block):
        assert field_with_block.is_free(Vec2(10, 10))
        assert not field_with_block.is_free(Vec2(50, 50))
        assert not field_with_block.is_free(Vec2(150, 50))

    def test_clamp(self, empty_field):
        assert empty_field.clamp(Vec2(150, -10)) == Vec2(100, 0)

    def test_nearest_free_returns_input_when_free(self, field_with_block):
        assert field_with_block.nearest_free(Vec2(10, 10)) == Vec2(10, 10)

    def test_nearest_free_escapes_obstacle(self, field_with_block):
        p = field_with_block.nearest_free(Vec2(50, 50))
        assert field_with_block.is_free(p)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_nearest_free_matches_the_vec2_spiral(self, seed):
        """The float spiral returns the ``Vec2`` search's point bit for
        bit: free points, points deep inside obstacles, on their edges,
        outside the field, and searches that run out of radius."""
        rng = random.Random(seed)
        field = clutter_field(300.0, seed=seed)
        points = [Vec2(rng.uniform(-20, 320), rng.uniform(-20, 320)) for _ in range(300)]
        for obstacle in field.obstacles:
            points.extend(obstacle.polygon.vertices)
            xs = [v.x for v in obstacle.polygon.vertices]
            ys = [v.y for v in obstacle.polygon.vertices]
            points.append(Vec2((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2))
        inside = 0
        for p in points:
            inside += not field.is_free(p)
            for step, max_radius in ((1.0, 200.0), (0.7, 3.0), (2.5, 0.5)):
                assert field.nearest_free(p, step, max_radius) == (
                    reference_nearest_free(field, p, step, max_radius)
                )
        assert inside > 20


class TestMotionQueries:
    def test_segment_blocked_by_obstacle(self, field_with_block):
        assert field_with_block.segment_blocked(Segment(Vec2(10, 50), Vec2(90, 50)))

    def test_segment_not_blocked_in_clear_area(self, field_with_block):
        assert not field_with_block.segment_blocked(Segment(Vec2(10, 10), Vec2(90, 10)))

    def test_segment_blocked_when_leaving_field(self, empty_field):
        assert empty_field.segment_blocked(Segment(Vec2(50, 50), Vec2(150, 50)))

    def test_max_free_travel_unblocked(self, empty_field):
        travelled = empty_field.max_free_travel(10.0, 10.0, 1.0, 0.0, 20.0)
        assert travelled == pytest.approx(20.0)

    def test_max_free_travel_stops_before_obstacle(self, field_with_block):
        travelled = field_with_block.max_free_travel(10.0, 50.0, 1.0, 0.0, 80.0)
        assert travelled <= 30.0 + 1.0
        end = Vec2(10, 50) + Vec2(1, 0) * travelled
        assert field_with_block.is_free(end)

    def test_max_free_travel_stops_at_field_edge(self, empty_field):
        travelled = empty_field.max_free_travel(90.0, 50.0, 1.0, 0.0, 50.0)
        assert travelled <= 10.0 + 1e-6


class TestBoundaryVisibility:
    def test_sees_field_boundary_near_edge(self, empty_field):
        pieces = empty_field.boundary_pieces_within(5.0, 50.0, 10.0)
        assert len(pieces) == 1
        assert all(abs(ax) < 1e-6 and abs(bx) < 1e-6 for ax, _, bx, _ in pieces)

    def test_sees_nothing_in_the_middle(self, empty_field):
        assert empty_field.boundary_pieces_within(50.0, 50.0, 10.0) == []

    def test_sees_obstacle_boundary(self, field_with_block):
        pieces = field_with_block.boundary_pieces_within(35.0, 50.0, 10.0)
        assert len(pieces) >= 1

    def test_corner_sees_two_edges(self, empty_field):
        pieces = empty_field.boundary_pieces_within(3.0, 3.0, 10.0)
        assert len(pieces) == 2

    @pytest.mark.parametrize("seed", [1, 2])
    def test_parity_with_the_segment_reference(self, seed):
        rng = random.Random(seed)
        field = Field(
            100.0,
            100.0,
            [
                Obstacle.rectangle(40, 40, 60, 60),
                Obstacle(Polygon([Vec2(10, 70), Vec2(30, 75), Vec2(20, 95)])),
            ],
        )
        seen = 0
        for _ in range(400):
            cx, cy = rng.uniform(-10, 110), rng.uniform(-10, 110)
            r = rng.uniform(1.0, 40.0)
            got = field.boundary_pieces_within(cx, cy, r)
            want = reference_boundary_segments_within(field, Circle(Vec2(cx, cy), r))
            assert got == [(s.a.x, s.a.y, s.b.x, s.b.y) for s in want]
            seen += len(got)
        assert seen > 0

    def test_obstacle_mutation_refreshes_the_edges(self, empty_field):
        assert empty_field.boundary_pieces_within(50.0, 50.0, 15.0) == []
        index = empty_field.add_obstacle(Obstacle.rectangle(40, 40, 60, 60))
        assert len(empty_field.boundary_pieces_within(50.0, 50.0, 15.0)) == 4
        empty_field.remove_obstacle(index)
        assert empty_field.boundary_pieces_within(50.0, 50.0, 15.0) == []


class TestChangeJournal:
    """``Field.changes_since``: the obstacles each version added or removed."""

    def test_each_version_lists_its_obstacle_box(self, empty_field):
        assert empty_field.version == 0
        assert empty_field.changes_since(0) == []
        wall = Obstacle.rectangle(40, 10, 45, 90)
        block = Obstacle.rectangle(60, 60, 70, 70)
        empty_field.add_obstacle(wall)
        empty_field.add_obstacle(block)
        removed = empty_field.remove_obstacle(0)
        assert removed is wall
        assert empty_field.version == 3
        assert empty_field.changes_since(0) == [
            (*wall.polygon.reject_box(), True),
            (*block.polygon.reject_box(), True),
            (*wall.polygon.reject_box(), False),
        ]
        assert empty_field.changes_since(2) == [(*wall.polygon.reject_box(), False)]
        assert empty_field.changes_since(3) == []

    def test_a_box_holds_every_point_the_change_flips(self, empty_field):
        # A point query outside the listed box answers as before.
        rng = random.Random(4)
        before = {}
        points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(400)]
        for x, y in points:
            before[x, y] = empty_field.is_free_xy(x, y)
        empty_field.add_obstacle(
            Obstacle(Polygon([Vec2(20, 20), Vec2(70, 35), Vec2(40, 80)]))
        )
        (xmin, ymin, xmax, ymax, added), = empty_field.changes_since(0)
        assert added
        flipped = [
            (x, y) for x, y in points if empty_field.is_free_xy(x, y) != before[x, y]
        ]
        assert flipped
        assert all(xmin <= x <= xmax and ymin <= y <= ymax for x, y in flipped)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_obstacles_out_of_the_pieces_reach_leave_the_pieces(self, seed):
        rng = random.Random(seed)
        field = Field(100.0, 100.0, [Obstacle.rectangle(40, 40, 60, 60)])
        checked = 0
        for _ in range(300):
            cx, cy = rng.uniform(-10, 110), rng.uniform(-10, 110)
            r = rng.uniform(1.0, 30.0)
            x, y = rng.uniform(0, 95), rng.uniform(0, 95)
            obstacle = Obstacle.rectangle(x, y, x + rng.uniform(1, 5), y + 3)
            rx0, ry0, rx1, ry1 = field.boundary_pieces_reach(cx, cy, r)
            ox0, oy0, ox1, oy1 = obstacle.polygon.reject_box()
            if ox0 <= rx1 and rx0 <= ox1 and oy0 <= ry1 and ry0 <= oy1:
                continue
            before = field.boundary_pieces_within(cx, cy, r)
            index = field.add_obstacle(obstacle)
            assert field.boundary_pieces_within(cx, cy, r) == before
            field.remove_obstacle(index)
            checked += 1
        assert checked > 100


class TestCoverage:
    def test_full_coverage(self, empty_field):
        assert empty_field.coverage_fraction([Vec2(50, 50)], 200.0, 5.0) == pytest.approx(1.0)

    def test_no_sensors_no_coverage(self, empty_field):
        assert empty_field.coverage_fraction([], 50.0, 5.0) == 0.0

    def test_quarter_disk_coverage(self, empty_field):
        cov = empty_field.coverage_fraction([Vec2(0, 0)], 50.0, 2.0)
        import math

        assert cov == pytest.approx(math.pi * 2500 / 4 / 10000, abs=0.02)

    def test_obstacle_area_excluded_from_denominator(self, field_with_block):
        # A sensor covering the whole field yields coverage 1.0 even though
        # obstacle cells are never counted as covered.
        assert field_with_block.coverage_fraction([Vec2(50, 10)], 500.0, 2.0) == pytest.approx(1.0)


def free_space_connected(field, resolution):
    report = ScenarioValidator(resolution=resolution).validate_field(field)
    return report.free_space_connected


class TestFreeSpaceConnectivity:
    def test_empty_field_connected(self, empty_field):
        assert free_space_connected(empty_field, resolution=10.0)

    def test_small_obstacle_keeps_connectivity(self, field_with_block):
        assert free_space_connected(field_with_block, resolution=5.0)

    def test_wall_disconnects_field(self):
        wall = Obstacle.rectangle(45, -1, 55, 101)
        field = Field(100.0, 100.0, [wall])
        assert not free_space_connected(field, resolution=5.0)
