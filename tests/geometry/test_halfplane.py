"""Tests for half-plane clipping and Voronoi-cell construction."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import HalfPlane, Polygon, Vec2, bisector_halfplane, clip_polygon
from repro.voronoi import compute_cell


class TestHalfPlane:
    def test_contains(self):
        hp = HalfPlane(Vec2(1, 0), 5.0)  # x <= 5
        assert hp.contains(Vec2(3, 100))
        assert not hp.contains(Vec2(6, 0))

    def test_signed_distance_sign(self):
        hp = HalfPlane(Vec2(1, 0), 5.0)
        assert hp.signed_distance(Vec2(7, 0)) > 0
        assert hp.signed_distance(Vec2(3, 0)) < 0

    def test_line_intersection(self):
        hp = HalfPlane(Vec2(1, 0), 5.0)
        crossing = hp.line_intersection(Vec2(0, 0), Vec2(10, 0))
        assert crossing.almost_equals(Vec2(5, 0))

    def test_line_intersection_parallel(self):
        hp = HalfPlane(Vec2(1, 0), 5.0)
        assert hp.line_intersection(Vec2(0, 0), Vec2(0, 10)) is None


class TestBisector:
    def test_bisector_splits_evenly(self):
        hp = bisector_halfplane(Vec2(0, 0), Vec2(10, 0))
        assert hp.contains(Vec2(2, 0))       # closer to the site
        assert not hp.contains(Vec2(8, 0))   # closer to the other
        assert hp.contains(Vec2(5, 0))       # equidistant -> boundary

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
    )
    def test_bisector_matches_distance_comparison(self, sx, sy, ox, oy, px, py):
        site, other, p = Vec2(sx, sy), Vec2(ox, oy), Vec2(px, py)
        if site.distance_to(other) < 1e-6:
            return
        hp = bisector_halfplane(site, other)
        closer_to_site = p.distance_to(site) <= p.distance_to(other) + 1e-6
        # Points within ``eps`` of the bisector plane may classify either
        # way; their distance difference can reach 2 * eps (for p on the
        # inter-site axis, |d_site - d_other| = 2 * plane distance), so
        # the escape clause must cover that full band.
        assert hp.contains(p, eps=1e-3) == closer_to_site or abs(
            p.distance_to(site) - p.distance_to(other)
        ) < 2.05e-3


class TestClipping:
    def test_clip_square_in_half(self):
        square = Polygon.rectangle(0, 0, 10, 10).vertices
        clipped = clip_polygon(square, HalfPlane(Vec2(1, 0), 5.0))
        poly = Polygon(clipped)
        assert poly.area() == pytest.approx(50.0)

    def test_clip_away_everything(self):
        square = Polygon.rectangle(0, 0, 10, 10).vertices
        clipped = clip_polygon(square, HalfPlane(Vec2(1, 0), -5.0))
        assert len(clipped) < 3

    def test_clip_keeps_everything(self):
        square = Polygon.rectangle(0, 0, 10, 10).vertices
        clipped = clip_polygon(square, HalfPlane(Vec2(1, 0), 100.0))
        assert Polygon(clipped).area() == pytest.approx(100.0)

    def test_empty_input(self):
        assert clip_polygon([], HalfPlane(Vec2(1, 0), 5.0)) == []


class TestCellConstruction:
    """Voronoi cells are bisector half-planes clipped onto the field."""

    def test_two_sites_split_field(self):
        bounding = Polygon.rectangle(0, 0, 100, 100)
        cell = compute_cell(Vec2(25, 50), [Vec2(75, 50)], bounding).polygon
        assert cell is not None
        assert cell.area() == pytest.approx(5000.0, rel=1e-6)
        assert cell.contains(Vec2(10, 50))
        assert not cell.contains(Vec2(90, 50))

    def test_four_symmetric_sites(self):
        bounding = Polygon.rectangle(0, 0, 100, 100)
        sites = [Vec2(25, 25), Vec2(75, 25), Vec2(25, 75), Vec2(75, 75)]
        areas = []
        for i, site in enumerate(sites):
            others = [s for j, s in enumerate(sites) if j != i]
            areas.append(compute_cell(site, others, bounding).polygon.area())
        assert all(a == pytest.approx(2500.0, rel=1e-6) for a in areas)

    def test_coincident_other_site_is_ignored(self):
        bounding = Polygon.rectangle(0, 0, 100, 100)
        cell = compute_cell(Vec2(50, 50), [Vec2(50, 50)], bounding)
        assert cell.polygon.area() == pytest.approx(10000.0)
