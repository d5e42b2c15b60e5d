"""Unit and property tests for 2-D vectors."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Vec2

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec2, finite, finite)


class TestArithmetic:
    def test_addition(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)

    def test_subtraction(self):
        assert Vec2(5, 5) - Vec2(2, 3) == Vec2(3, 2)

    def test_scalar_multiplication(self):
        assert Vec2(1, -2) * 3 == Vec2(3, -6)
        assert 3 * Vec2(1, -2) == Vec2(3, -6)

    def test_division(self):
        assert Vec2(4, 8) / 2 == Vec2(2, 4)

    def test_negation(self):
        assert -Vec2(1, -2) == Vec2(-1, 2)

    def test_iteration_and_tuple(self):
        assert tuple(Vec2(1, 2)) == (1.0, 2.0)
        assert Vec2(1, 2).as_tuple() == (1.0, 2.0)

    def test_immutability(self):
        v = Vec2(1, 2)
        with pytest.raises(Exception):
            v.x = 5  # type: ignore[misc]


class TestProducts:
    def test_dot(self):
        assert Vec2(1, 2).dot(Vec2(3, 4)) == 11

    def test_cross_sign(self):
        assert Vec2(1, 0).cross(Vec2(0, 1)) == 1
        assert Vec2(0, 1).cross(Vec2(1, 0)) == -1

    def test_norm(self):
        assert Vec2(3, 4).norm() == pytest.approx(5.0)
        assert Vec2(3, 4).norm_sq() == pytest.approx(25.0)

    def test_distance(self):
        assert Vec2(0, 0).distance_to(Vec2(3, 4)) == pytest.approx(5.0)


class TestDirections:
    def test_normalized_unit_length(self):
        v = Vec2(10, -5).normalized()
        assert v.norm() == pytest.approx(1.0)

    def test_normalized_zero_vector(self):
        assert Vec2(0, 0).normalized() == Vec2(0, 0)

    def test_from_polar(self):
        v = Vec2.from_polar(2.0, math.pi / 2)
        assert v.almost_equals(Vec2(0, 2))

    def test_rotation_90_degrees(self):
        v = Vec2(1, 0).rotated(math.pi / 2)
        assert v.almost_equals(Vec2(0, 1))

    def test_perpendicular(self):
        assert Vec2(1, 0).perpendicular().almost_equals(Vec2(0, 1))

    def test_towards(self):
        assert Vec2(0, 0).towards(Vec2(10, 0)).almost_equals(Vec2(1, 0))

    def test_lerp_endpoints_and_midpoint(self):
        a, b = Vec2(0, 0), Vec2(4, 8)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b
        assert a.lerp(b, 0.5) == Vec2(2, 4)

    def test_angle(self):
        assert Vec2(0, 1).angle() == pytest.approx(math.pi / 2)


class TestProperties:
    @given(vectors, vectors)
    def test_addition_commutes(self, a, b):
        assert (a + b).almost_equals(b + a, eps=1e-6)

    @given(vectors, vectors)
    def test_distance_symmetry(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(vectors, vectors, vectors)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(vectors)
    def test_norm_is_nonnegative(self, v):
        assert v.norm() >= 0

    @given(vectors, st.floats(min_value=-math.pi, max_value=math.pi))
    def test_rotation_preserves_norm(self, v, angle):
        assert v.rotated(angle).norm() == pytest.approx(v.norm(), abs=1e-6)

    @given(vectors, vectors)
    def test_dot_consistent_with_cross(self, a, b):
        # |a x b|^2 + (a . b)^2 == |a|^2 |b|^2 (Lagrange identity).
        lhs = a.cross(b) ** 2 + a.dot(b) ** 2
        rhs = a.norm_sq() * b.norm_sq()
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-3)
