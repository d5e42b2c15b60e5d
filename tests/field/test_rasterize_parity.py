"""Parity of the vectorised obstacle rasterisation against its scalar
reference: ``Field._rasterize_obstacles`` classifies arbitrary polygons
with the vectorised ray-cast of ``Polygon.contains_points``, pinned here
against the per-point predicate scan.
"""

import math
import random

import numpy as np
import pytest

from repro.field import Field
from repro.field.obstacles import Obstacle
from repro.geometry import Polygon, Vec2
from tests.oracles import predicate_mask


def _polygon_cases():
    return [
        (
            "triangle",
            Obstacle(
                Polygon([Vec2(20, 20), Vec2(80, 30), Vec2(40, 85)])
            ),
        ),
        (
            "rotated-square",
            Obstacle(
                Polygon([Vec2(50, 10), Vec2(90, 50), Vec2(50, 90), Vec2(10, 50)])
            ),
        ),
        (
            "concave-L",
            Obstacle(
                Polygon([
                    Vec2(10, 10),
                    Vec2(70, 10),
                    Vec2(70, 30),
                    Vec2(30, 30),
                    Vec2(30, 70),
                    Vec2(10, 70),
                ])
            ),
        ),
        (
            "pentagon",
            Obstacle(
                Polygon([
                    Vec2(60 + 25 * math.cos(2 * math.pi * k / 5),
                         60 + 25 * math.sin(2 * math.pi * k / 5))
                    for k in range(5)
                ])
            ),
        ),
    ]


class TestPolygonRasterizationParity:
    @pytest.mark.parametrize(
        "name,obstacle", _polygon_cases(), ids=[c[0] for c in _polygon_cases()]
    )
    def test_matches_predicate_scan(self, name, obstacle):
        field = Field(120.0, 120.0, [obstacle])
        grid, mask = field.grid_and_obstacle_mask(resolution=3.0)
        reference = predicate_mask(grid, obstacle.contains)
        assert np.array_equal(mask, reference)

    def test_mixed_rectangles_and_polygons(self):
        obstacles = [
            Obstacle.rectangle(5, 5, 25, 40),
            _polygon_cases()[1][1],
            _polygon_cases()[2][1],
        ]
        field = Field(120.0, 120.0, obstacles)
        grid, mask = field.grid_and_obstacle_mask(resolution=2.5)
        reference = predicate_mask(
            grid, lambda p: any(ob.contains(p) for ob in obstacles)
        )
        assert np.array_equal(mask, reference)

    def test_contains_points_matches_scalar_randomized(self):
        rng = np.random.default_rng(11)
        for _, obstacle in _polygon_cases():
            px = rng.uniform(0, 120, 400)
            py = rng.uniform(0, 120, 400)
            batch = obstacle.contains_points(px, py)
            scalar = np.array(
                [obstacle.contains(Vec2(x, y)) for x, y in zip(px, py)]
            )
            assert np.array_equal(batch, scalar)
