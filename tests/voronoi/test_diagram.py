"""Tests for the bounded Voronoi diagram."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.field import obstacle_free_field
from repro.geometry import Vec2
from repro.voronoi import compute_cell, minimum_enclosing_circle


class TestSingleCells:
    def test_lone_site_owns_whole_field(self):
        field = obstacle_free_field(100.0)
        cell = compute_cell(Vec2(50, 50), [], field.boundary_polygon())
        assert cell.polygon.area() == pytest.approx(10000.0)

    def test_two_sites_split_area(self):
        field = obstacle_free_field(100.0)
        bounding = field.boundary_polygon()
        left = compute_cell(Vec2(25, 50), [Vec2(75, 50)], bounding)
        right = compute_cell(Vec2(75, 50), [Vec2(25, 50)], bounding)
        assert left.polygon.area() == pytest.approx(5000.0, rel=1e-6)
        assert right.polygon.area() == pytest.approx(5000.0, rel=1e-6)

    def test_cell_contains_its_site(self):
        field = obstacle_free_field(100.0)
        rng = random.Random(0)
        sites = [Vec2(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(12)]
        for i, site in enumerate(sites):
            others = [s for j, s in enumerate(sites) if j != i]
            cell = compute_cell(site, others, field.boundary_polygon())
            assert cell.contains(site)

    def test_farthest_vertex(self):
        field = obstacle_free_field(100.0)
        cell = compute_cell(Vec2(10, 10), [], field.boundary_polygon())
        assert cell.farthest_vertex().almost_equals(Vec2(100, 100))

    def test_minimax_point_of_square_cell(self):
        field = obstacle_free_field(100.0)
        cell = compute_cell(Vec2(10, 10), [], field.boundary_polygon())
        assert cell.minimax_point().almost_equals(Vec2(50, 50), eps=1e-3)

    def test_empty_cell_handling(self):
        from repro.voronoi.diagram import VoronoiCell

        empty = VoronoiCell(Vec2(0, 0), None)
        assert empty.vertices() == []
        assert empty.farthest_vertex() is None
        assert empty.minimax_point() is None


def all_cells(sites, field):
    """Every site's cell against all the other sites."""
    bounding = field.boundary_polygon()
    return [
        compute_cell(site, sites[:i] + sites[i + 1 :], bounding)
        for i, site in enumerate(sites)
    ]


class TestDiagram:
    def test_cells_partition_field_area(self):
        field = obstacle_free_field(200.0)
        rng = random.Random(1)
        sites = [Vec2(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(20)]
        cells = all_cells(sites, field)
        total = sum(c.polygon.area() for c in cells if c.polygon is not None)
        assert total == pytest.approx(field.area(), rel=1e-3)

    def test_every_cell_contains_only_nearest_points(self):
        field = obstacle_free_field(100.0)
        sites = [Vec2(20, 20), Vec2(80, 20), Vec2(50, 80)]
        cells = all_cells(sites, field)
        rng = random.Random(2)
        for _ in range(50):
            p = Vec2(rng.uniform(0, 100), rng.uniform(0, 100))
            nearest = min(range(3), key=lambda i: p.distance_to(sites[i]))
            # The point must belong to the nearest site's cell (boundary ties allowed).
            assert cells[nearest].contains(p) or any(
                abs(p.distance_to(sites[nearest]) - p.distance_to(sites[j])) < 1e-6
                for j in range(3)
                if j != nearest
            )


class TestMinimumEnclosingCircle:
    def test_two_points(self):
        center, radius = minimum_enclosing_circle([Vec2(0, 0), Vec2(10, 0)])
        assert center.almost_equals(Vec2(5, 0))
        assert radius == pytest.approx(5.0)

    def test_equilateral_triangle(self):
        pts = [Vec2(0, 0), Vec2(10, 0), Vec2(5, 8.6602540378)]
        center, radius = minimum_enclosing_circle(pts)
        for p in pts:
            assert center.distance_to(p) == pytest.approx(radius, abs=1e-6)

    def test_empty_input(self):
        center, radius = minimum_enclosing_circle([])
        assert radius == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.builds(
                Vec2,
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_all_points_enclosed(self, points):
        center, radius = minimum_enclosing_circle(points)
        for p in points:
            assert center.distance_to(p) <= radius + 1e-6
