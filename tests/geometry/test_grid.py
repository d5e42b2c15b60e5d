"""Tests for the coverage grid."""

import math

import numpy as np
import pytest

from repro.field import two_obstacle_field
from repro.geometry import CoverageGrid, Vec2
from tests.oracles import predicate_mask, reference_disk_block


class TestConstruction:
    def test_shape_and_point_count(self):
        grid = CoverageGrid(0, 0, 100, 50, 10)
        nx, ny = grid.shape
        assert nx == 10
        assert ny == 5
        assert grid.num_points == 50

    def test_invalid_rectangle(self):
        with pytest.raises(ValueError):
            CoverageGrid(0, 0, -10, 10, 1)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            CoverageGrid(0, 0, 10, 10, 0)

    def test_points_inside_rectangle(self):
        grid = CoverageGrid(0, 0, 100, 100, 25)
        px, py = grid.point_arrays()
        assert px.min() >= 0 and px.max() <= 100
        assert py.min() >= 0 and py.max() <= 100


class TestCoverageMask:
    def test_no_centers_means_no_coverage(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        mask = grid.coverage_mask([], 50)
        assert not mask.any()

    def test_large_radius_covers_everything(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        mask = grid.coverage_mask([(50, 50)], 1000)
        assert mask.all()

    def test_fraction_of_quarter_disk(self):
        # A disk of radius 50 centered at a corner of a 100x100 field covers
        # pi * 50^2 / 4 of the area.
        grid = CoverageGrid(0, 0, 100, 100, 2)
        mask = grid.coverage_mask([(0, 0)], 50)
        expected = math.pi * 50**2 / 4 / (100 * 100)
        assert grid.fraction(mask) == pytest.approx(expected, abs=0.02)

    def test_multiple_centers_union(self):
        grid = CoverageGrid(0, 0, 100, 100, 5)
        single = grid.fraction(grid.coverage_mask([(25, 50)], 20))
        double = grid.fraction(grid.coverage_mask([(25, 50), (75, 50)], 20))
        assert double == pytest.approx(2 * single, rel=0.05)

    def test_fraction_with_domain(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        mask = grid.coverage_mask([(0, 0)], 1000)
        domain = predicate_mask(grid, lambda p: p.x < 50)
        assert grid.fraction(mask, domain=domain) == pytest.approx(1.0)

    def test_fraction_with_empty_domain(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        mask = grid.coverage_mask([(0, 0)], 1000)
        domain = np.zeros(grid.num_points, dtype=bool)
        assert grid.fraction(mask, domain=domain) == 0.0


class TestPredicateMask:
    def test_half_plane_predicate(self):
        grid = CoverageGrid(0, 0, 100, 100, 5)
        mask = predicate_mask(grid, lambda p: p.y > 50)
        assert grid.fraction(mask) == pytest.approx(0.5, abs=0.05)


def reference_hits(grid, cx, cy, radius):
    """Sorted flat indices hit by each disk, one disk block at a time."""
    ny = grid.shape[1]
    parts = [np.empty(0, dtype=np.intp)]
    for x, y in zip(cx, cy):
        block = reference_disk_block(grid, x, y, radius)
        if block is None:
            continue
        si, sj, hit = block
        ii, jj = np.nonzero(hit)
        parts.append((ii + si.start) * ny + (jj + sj.start))
    return np.sort(np.concatenate(parts))


def assert_hits_match(grid, cx, cy, radius):
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    got = np.sort(grid.disk_hits(cx, cy, radius))
    assert np.array_equal(got, reference_hits(grid, cx, cy, radius))


class TestDiskHits:
    """``disk_hits`` hits exactly what the one-disk reference block hits."""

    @pytest.mark.parametrize("trial", range(40))
    def test_random_disks_match_reference(self, trial):
        rng = np.random.default_rng(trial)
        grid = CoverageGrid(
            0, 0, rng.uniform(40, 300), rng.uniform(40, 300),
            float(rng.choice([2.5, 7.0, 10.0, 15.0])),
        )
        n = int(rng.integers(1, 40))
        radius = float(rng.uniform(0.5, 70))
        # Off-grid centres, some of them outside the field.
        cx = rng.uniform(-90, grid.xmax + 90, n)
        cy = rng.uniform(-90, grid.ymax + 90, n)
        assert_hits_match(grid, cx, cy, radius)

    def test_centres_on_sample_points(self):
        grid = CoverageGrid(0, 0, 200, 150, 10)
        xs, ys = grid.axes
        cx, cy = np.meshgrid(xs[::3], ys[::2], indexing="ij")
        for radius in (0.0, 10.0, 20.0, 35.0):
            assert_hits_match(grid, cx.ravel(), cy.ravel(), radius)

    def test_bounding_box_edges_on_sample_points(self):
        # Every coordinate here is exact in binary, so cx - r, cx + r,
        # cy - r and cy + r land exactly on sample points (and the rim
        # points sit exactly at distance r).
        grid = CoverageGrid(0, 0, 200, 200, 10)
        radius = 20.0
        cx = [25.0, 45.0, 105.0, 195.0, 5.0]
        cy = [45.0, 25.0, 100.0, 15.0, 185.0]
        assert_hits_match(grid, cx, cy, radius)
        assert len(grid.disk_hits([45.0], [45.0], radius)) == 13

    def test_centres_outside_the_field(self):
        grid = CoverageGrid(0, 0, 100, 100, 5)
        cx = [-30.0, 130.0, 50.0, 50.0, -500.0, -10.0]
        cy = [50.0, 50.0, -30.0, 130.0, -500.0, -10.0]
        assert_hits_match(grid, cx, cy, 20.0)
        assert len(grid.disk_hits([-500.0], [-500.0], 20.0)) == 0

    def test_zero_radius(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        # Only a centre exactly on a sample point hits (distance 0 <= 0).
        assert_hits_match(grid, [15.0, 33.0], [25.0, 41.0], 0.0)
        assert len(grid.disk_hits([15.0, 33.0], [25.0, 41.0], 0.0)) == 1

    def test_radius_larger_than_the_field(self):
        # Enough disks that the stencil is processed in several chunks.
        grid = CoverageGrid(0, 0, 300, 300, 3)
        rng = np.random.default_rng(5)
        cx = rng.uniform(-50, 350, 60)
        cy = rng.uniform(-50, 350, 60)
        hits = grid.disk_hits(cx, cy, 1000.0)
        assert np.array_equal(
            np.bincount(hits, minlength=grid.num_points),
            np.full(grid.num_points, 60),
        )
        assert_hits_match(grid, cx, cy, 1000.0)

    @pytest.mark.parametrize("trial", range(12))
    def test_split_pass_equals_two_passes(self, trial):
        """One ``disk_hits_split`` pass over two batches of disks is the
        two batches' ``disk_hits`` back to back, split where the first
        ends (chunked, clipped and empty batches included)."""
        rng = np.random.default_rng(100 + trial)
        grid = CoverageGrid(0, 0, 200, 160, float(rng.choice([2.0, 5.0, 10.0])))
        n = int(rng.integers(0, 70))
        first = int(rng.integers(0, n + 1))
        radius = float(rng.uniform(0.0, 60.0))
        cx = rng.uniform(-40, 240, n)
        cy = rng.uniform(-40, 200, n)
        hits, split = grid.disk_hits_split(cx, cy, radius, first)
        head = grid.disk_hits(cx[:first], cy[:first], radius)
        tail = grid.disk_hits(cx[first:], cy[first:], radius)
        assert split == len(head)
        assert np.array_equal(hits, np.concatenate((head, tail)))

    @staticmethod
    def _ordered_reference(grid, cx, cy, radius, first):
        """Each disk's hits in C order over its own block, disk by disk,
        and how many the first ``first`` disks make."""
        ny = grid.shape[1]
        parts = [np.empty(0, dtype=np.intp)]
        split = 0
        for k, (x, y) in enumerate(zip(cx, cy)):
            block = reference_disk_block(grid, x, y, radius)
            if block is None:
                continue
            si, sj, hit = block
            ii, jj = np.nonzero(hit)
            parts.append((ii + si.start) * ny + (jj + sj.start))
            if k < first:
                split += len(ii)
        return np.concatenate(parts), split

    @pytest.mark.parametrize("trial", range(30))
    def test_split_hits_match_the_predicate_in_order(self, trial):
        """``disk_hits_split`` against the brute-force predicate: the same
        hits in the same order and the same split, with centres on sample
        points, on the grid's own coordinates and off the field, and
        ``first`` at the start, inside and at the end of the batch."""
        rng = np.random.default_rng(500 + trial)
        grid = CoverageGrid(
            0, 0, rng.uniform(40, 250), rng.uniform(40, 250),
            float(rng.choice([2.5, 5.0, 10.0, 12.5])),
        )
        xs, ys = grid.axes
        n = int(rng.integers(1, 60))
        cx = rng.uniform(-80, grid.xmax + 80, n)
        cy = rng.uniform(-80, grid.ymax + 80, n)
        aligned = rng.random(n) < 0.4
        cx[aligned] = rng.choice(xs, int(aligned.sum()))
        cy[aligned] = rng.choice(ys, int(aligned.sum()))
        radius = float(rng.choice([0.0, grid.resolution, rng.uniform(0.5, 70)]))
        for first in (0, int(rng.integers(0, n + 1)), n):
            hits, split = grid.disk_hits_split(cx, cy, radius, first)
            expected, expected_split = self._ordered_reference(
                grid, cx, cy, radius, first
            )
            assert np.array_equal(hits, expected)
            assert split == expected_split

    def test_split_hits_over_several_stencil_chunks(self):
        # More stencil cells than one chunk holds: the disks go through
        # in several chunks, and ``first`` falls inside a later one.
        from repro.geometry.grid import _STENCIL_CELLS

        grid = CoverageGrid(0, 0, 400, 400, 2.0)
        rng = np.random.default_rng(9)
        radius = 30.0
        cells = (2 * radius / grid.resolution + 1) ** 2
        n = int(1.5 * _STENCIL_CELLS / cells) + 1
        cx = rng.uniform(-20, 420, n)
        cy = rng.uniform(-20, 420, n)
        for first in (0, n // 2, n - 1, n):
            hits, split = grid.disk_hits_split(cx, cy, radius, first)
            expected, expected_split = self._ordered_reference(
                grid, cx, cy, radius, first
            )
            assert np.array_equal(hits, expected)
            assert split == expected_split

    def test_no_disks(self):
        grid = CoverageGrid(0, 0, 100, 100, 10)
        hits = grid.disk_hits([], [], 30.0)
        assert hits.shape == (0,)
        assert grid.coverage_mask([], 30.0).shape == (grid.num_points,)

    @pytest.mark.parametrize("seed", range(4))
    def test_obstacle_field_coverage_matches_reference(self, seed):
        field = two_obstacle_field(300.0)
        grid, obstacle_mask = field.grid_and_obstacle_mask(7.5)
        free = ~obstacle_mask
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-20, 320, size=(25, 2))
        radius = float(rng.uniform(10, 60))
        covered = reference_hits(grid, pts[:, 0], pts[:, 1], radius)
        mask = np.zeros(grid.num_points, dtype=bool)
        mask[covered] = True
        expected = int(np.count_nonzero(mask & free)) / int(np.count_nonzero(free))
        positions = [Vec2(x, y) for x, y in pts]
        assert field.coverage_fraction(positions, radius, 7.5) == expected
