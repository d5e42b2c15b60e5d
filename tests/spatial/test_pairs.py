"""The directed pair view the neighbour table is sliced from.

``NeighborSnapshot`` builds the neighbour table from one
``SpatialIndex.directed_pairs`` call at ``rc + LINK_EPS``: rows sorted,
columns ascending within each row, exact float64 squared distances.
Pinned here: that pair view against a dense scan (bit for bit, whatever
the cell size), its nesting across radii, and the table sliced from it
against the pairs and the brute-force oracle.
"""

import random

import numpy as np
import pytest

from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.geometry import Vec2
from repro.network import LINK_EPS
from repro.spatial import SpatialIndex
from tests.oracles import uncached

FIELD = 200.0


def _world(n=60, seed=4):
    return make_scenario(SMOKE_SCALE, sensor_count=n, seed=seed).build_world()


def _coords(rng, n, size=FIELD):
    return np.array(
        [[rng.uniform(0.0, size), rng.uniform(0.0, size)] for _ in range(n)],
        dtype=float,
    ).reshape(n, 2)


def _dense_pairs(points, limit):
    """Every directed pair within ``limit`` from the full distance matrix,
    in row-major order, with the same float64 squared distances."""
    x, y = points[:, 0], points[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    d2 = dx * dx + dy * dy
    within = d2 <= limit * limit
    np.fill_diagonal(within, False)
    rows, cols = np.nonzero(within)
    return rows, cols, d2[rows, cols]


def _assert_exact(got, expected):
    grows, gcols, gd2 = got
    erows, ecols, ed2 = expected
    assert np.array_equal(grows, erows)
    assert np.array_equal(gcols, ecols)
    # Bit-identical float64 distances, not approx: the cache re-tests
    # these values against the squared link limit.
    assert np.array_equal(gd2, ed2)


def _world_pairs(world, extra=0.0):
    index = SpatialIndex(world.config.communication_range * 1.001).build(
        np.array([(s.position.x, s.position.y) for s in world.alive_sensors()])
    )
    return index.directed_pairs(
        world.config.communication_range + LINK_EPS + extra
    )


def _table_from_pairs(world, rows, cols):
    ids = [s.sensor_id for s in world.alive_sensors()]
    rebuilt = {sid: [] for sid in ids}
    for r, c in zip(rows.tolist(), cols.tolist()):
        rebuilt[ids[r]].append(ids[c])
    return rebuilt


class TestDirectedPairs:
    @pytest.mark.parametrize("trial", range(8))
    def test_matches_dense_scan_exactly(self, trial):
        rng = random.Random(900 + trial)
        n = rng.randint(2, 120)
        points = _coords(rng, n)
        limit = rng.uniform(5.0, 80.0)
        index = SpatialIndex(limit * 1.001).build(points)
        _assert_exact(index.directed_pairs(limit), _dense_pairs(points, limit))

    @pytest.mark.parametrize("cell_factor", [0.3, 0.5, 1.001, 2.5])
    def test_cell_size_does_not_change_the_answer(self, cell_factor):
        """Cells only over-approximate the candidates: any cell size gives
        the same pairs, order and distances."""
        rng = random.Random(17)
        points = _coords(rng, 80)
        limit = 40.0
        index = SpatialIndex(limit * cell_factor).build(points)
        _assert_exact(index.directed_pairs(limit), _dense_pairs(points, limit))

    def test_degenerate_inputs(self):
        one = SpatialIndex(10.0).build(np.array([[1.0, 1.0]]))
        rows, cols, d2 = one.directed_pairs(10.0)
        assert len(rows) == len(cols) == len(d2) == 0
        two = SpatialIndex(10.0).build(np.array([[0.0, 0.0], [1.0, 1.0]]))
        rows, cols, d2 = two.directed_pairs(-1.0)
        assert len(rows) == 0
        # Coincident points are linked both ways at distance zero.
        same = SpatialIndex(10.0).build(np.array([[3.0, 3.0], [3.0, 3.0]]))
        rows, cols, d2 = same.directed_pairs(0.0)
        assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]
        assert d2.tolist() == [0.0, 0.0]


class TestNeighborTableSlicing:
    def test_pairs_match_table(self):
        world = _world()
        rows, cols, _ = _world_pairs(world)
        assert _table_from_pairs(world, rows, cols) == world.neighbor_table()

    def test_table_follows_movement(self):
        world = _world()
        world.neighbor_table()
        # Move a sensor far away: its pairs must drop out on requery.
        world.sensors[0].motion.move_to(Vec2(0.1, 0.1))
        rows, cols, _ = _world_pairs(world)
        table = world.neighbor_table()
        assert _table_from_pairs(world, rows, cols) == table
        assert table == uncached(world).neighbor_table()

    def test_inflated_pairs_nest_exactly(self):
        world = _world()
        rows, cols, d2 = _world_pairs(world)
        irows, icols, id2 = _world_pairs(world, 10.0)
        base = set(zip(rows.tolist(), cols.tolist()))
        inflated = set(zip(irows.tolist(), icols.tolist()))
        assert base <= inflated
        limit = world.config.communication_range + LINK_EPS
        # Every inflated-only pair is beyond the link limit; every base
        # pair within.
        for pair, dd in zip(zip(irows.tolist(), icols.tolist()), id2.tolist()):
            if pair not in base:
                assert dd > limit * limit
        assert np.all(d2 <= limit * limit)

    def test_table_matches_bruteforce(self):
        world = _world()
        assert world.neighbor_table() == uncached(world).neighbor_table()
