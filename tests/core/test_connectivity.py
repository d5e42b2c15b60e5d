"""Tests for the connectivity-preserving step-size selection (CPVF)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.connectivity import STEP_FRACTIONS, max_valid_step_points
from repro.geometry import Vec2
from tests.oracles import NeighborMotion, step_is_valid


def ladder_step(position, direction, max_step, links, rc):
    """The production ladder on ``Vec2`` arguments and ``(x, y)`` links."""
    return max_valid_step_points(
        position.x, position.y, direction.x, direction.y, max_step, links, rc
    )


class TestStepValidity:
    def test_no_neighbors_means_any_step_is_valid(self):
        assert step_is_valid(Vec2(0, 0), Vec2(100, 0), [], 60.0)

    def test_step_within_range_is_valid(self):
        neighbor = NeighborMotion.stationary(Vec2(0, 30))
        assert step_is_valid(Vec2(0, 0), Vec2(20, 0), [neighbor], 60.0)

    def test_step_breaking_link_is_invalid(self):
        neighbor = NeighborMotion.stationary(Vec2(0, 55))
        assert not step_is_valid(Vec2(0, 0), Vec2(30, 0), [neighbor], 60.0)

    def test_moving_neighbor_end_position_matters(self):
        neighbor = NeighborMotion(current=Vec2(0, 30), planned_end=Vec2(0, 59))
        # End-to-end distance sqrt(20^2 + 59^2) < 60 is fine, but a larger
        # move would break it.
        assert step_is_valid(Vec2(0, 0), Vec2(8, 0), [neighbor], 60.0)
        assert not step_is_valid(Vec2(0, 0), Vec2(30, 0), [neighbor], 60.0)

    def test_initially_out_of_range_neighbor_invalidates(self):
        neighbor = NeighborMotion.stationary(Vec2(0, 100))
        assert not step_is_valid(Vec2(0, 0), Vec2(0, 1), [neighbor], 60.0)


class TestMaxValidStep:
    def test_unconstrained_step_is_full(self):
        step = ladder_step(Vec2(0, 0), Vec2(1, 0), 2.0, [], 60.0)
        assert step == pytest.approx(2.0)

    def test_zero_direction_gives_zero_step(self):
        assert ladder_step(Vec2(0, 0), Vec2(0, 0), 2.0, [], 60.0) == 0.0

    def test_constrained_step_is_reduced(self):
        # Neighbour exactly at the communication range in the direction of
        # motion's opposite: moving away must be limited.
        step = ladder_step(Vec2(0, 0), Vec2(1, 0), 2.0, [(-59.5, 0.0)], 60.0)
        assert 0.0 < step < 2.0

    def test_fully_blocked_step_is_zero(self):
        step = ladder_step(Vec2(0, 0), Vec2(1, 0), 2.0, [(-60.0, 0.0)], 60.0)
        assert step == 0.0

    def test_step_fractions_ladder(self):
        assert STEP_FRACTIONS[0] == 1.0
        assert STEP_FRACTIONS[-1] == 0.0
        assert len(STEP_FRACTIONS) == 11

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=0.5, max_value=5.0),
    )
    def test_returned_step_is_always_valid(self, nx, ny, max_step):
        neighbor = NeighborMotion.stationary(Vec2(nx, ny))
        direction = Vec2(1, 0.5)
        step = ladder_step(Vec2(0, 0), direction, max_step, [(nx, ny)], 60.0)
        if step > 0:
            end = Vec2(0, 0) + direction.normalized() * step
            assert step_is_valid(Vec2(0, 0), end, [neighbor], 60.0)

    @given(st.floats(min_value=0.5, max_value=5.0))
    def test_step_never_exceeds_max(self, max_step):
        step = ladder_step(Vec2(0, 0), Vec2(1, 1), max_step, [], 60.0)
        assert step <= max_step + 1e-9


class TestConnectivityInvariantOverTime:
    def test_intermediate_positions_stay_within_range(self):
        """Appendix A: if endpoints are within rc, so is every interpolation."""
        rc = 60.0
        start_a, end_a = Vec2(0, 0), Vec2(2, 0)
        start_b, end_b = Vec2(0, 58), Vec2(1, 59)
        assert start_a.distance_to(start_b) <= rc
        assert end_a.distance_to(end_b) <= rc
        for i in range(11):
            t = i / 10
            pa = start_a.lerp(end_a, t)
            pb = start_b.lerp(end_b, t)
            assert pa.distance_to(pb) <= rc + 1e-9
