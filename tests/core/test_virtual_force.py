"""Tests for the virtual-force model."""

import pytest
from hypothesis import given, strategies as st

from repro.core import VirtualForceModel
from repro.field import Field, Obstacle
from repro.geometry import Vec2
from tests.oracles import force_direction, resultant_force, sensor_force


def make_model(repulsion=80.0, obstacle=40.0) -> VirtualForceModel:
    return VirtualForceModel(repulsion_distance=repulsion, obstacle_distance=obstacle)


class TestSensorForces:
    def test_close_neighbor_repels(self):
        force = sensor_force(make_model(), Vec2(0, 0), Vec2(10, 0))
        assert force.x < 0
        assert force.y == pytest.approx(0.0)

    def test_far_neighbor_exerts_no_force(self):
        force = sensor_force(make_model(repulsion=80.0), Vec2(0, 0), Vec2(100, 0))
        assert force == Vec2(0, 0)

    def test_force_magnitude_decreases_with_distance(self):
        model = make_model()
        near = sensor_force(model, Vec2(0, 0), Vec2(10, 0)).norm()
        far = sensor_force(model, Vec2(0, 0), Vec2(70, 0)).norm()
        assert near > far > 0

    def test_coincident_sensors_get_nonzero_push(self):
        force = sensor_force(make_model(), Vec2(5, 5), Vec2(5, 5))
        assert force.norm() > 0

    def test_symmetric_neighbors_cancel(self):
        model = make_model()
        resultant = resultant_force(model, Vec2(0, 0), [Vec2(10, 0), Vec2(-10, 0)])
        assert resultant.norm() == pytest.approx(0.0, abs=1e-9)


class TestObstacleForces:
    def test_obstacle_repels_nearby_sensor(self):
        field = Field(200, 200, [Obstacle.rectangle(80, 80, 120, 120)])
        model = make_model(obstacle=40.0)
        force_x, _ = model.force_from_obstacles(70.0, 100.0, field)
        assert force_x < 0  # pushed away from the obstacle (toward -x)

    def test_far_obstacle_is_ignored(self):
        field = Field(400, 400, [Obstacle.rectangle(300, 300, 350, 350)])
        model = make_model(obstacle=40.0)
        force = model.force_from_obstacles(200.0, 200.0, field)
        assert force == (0.0, 0.0)

    def test_field_boundary_pushes_inward(self):
        field = Field(200, 200)
        model = make_model(obstacle=40.0)
        force_x, _ = model.force_from_obstacles(5.0, 100.0, field)
        assert force_x > 0
        _, force_top_y = model.force_from_obstacles(100.0, 195.0, field)
        assert force_top_y < 0

    def test_center_of_empty_field_is_force_free(self):
        field = Field(200, 200)
        force = make_model(obstacle=40.0).force_from_obstacles(100.0, 100.0, field)
        assert force == (0.0, 0.0)

    def test_obstacle_beyond_perception_range_is_not_measured(self, monkeypatch):
        from repro.geometry import Polygon

        def unexpected(*args):
            raise AssertionError("boundary distance measured beyond the cutoff")

        field = Field(400, 400, [Obstacle.rectangle(300, 300, 350, 350)])
        monkeypatch.setattr(Polygon, "nearest_boundary_xy", unexpected)
        # 40 m left of the padded box on the x axis, level with it on y.
        xmin = field.obstacles[0].polygon.reject_box()[0]
        force = make_model(obstacle=40.0).force_from_obstacles(
            xmin - 40.0, 320.0, field
        )
        assert force == (0.0, 0.0)

    def test_sensor_inside_obstacle_is_pushed_out(self):
        field = Field(200, 200, [Obstacle.rectangle(80, 80, 120, 120)])
        force = make_model().force_from_obstacles(100.0, 100.0, field)
        assert Vec2(*force).norm() > 0


class TestResultantDirection:
    def test_direction_is_unit_length(self):
        model = make_model()
        direction = force_direction(model, Vec2(0, 0), [Vec2(10, 0), Vec2(0, 15)])
        assert direction.norm() == pytest.approx(1.0)

    def test_direction_zero_at_equilibrium(self):
        model = make_model()
        direction = force_direction(model, Vec2(0, 0), [])
        assert direction == Vec2(0, 0)

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    )
    def test_single_neighbor_force_points_away(self, dx, dy):
        if abs(dx) < 1e-6 and abs(dy) < 1e-6:
            return
        model = make_model()
        neighbor = Vec2(dx, dy)
        force = sensor_force(model, Vec2(0, 0), neighbor)
        if force.norm() > 0:
            # The force must point away from the neighbour.
            assert force.dot(Vec2(0, 0) - neighbor) > 0
