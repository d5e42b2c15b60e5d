"""Incremental pair maintenance: the store must be invisible.

``NeighborCache.neighbor_pairs`` answers every request from a
:class:`~repro.spatial.PairStore` — an inflated-radius pair set anchored
at frozen positions, repaired in place when sensors out-drift their
slack budget.  The contract is *bit-identical* output: every answer,
whatever maintenance path produced it (serve, repair, rebuild), must
equal a fresh ``SpatialIndex.neighbor_pairs_directed`` build over the
live positions — same pairs, same lexicographic order, same float64
squared distances.  This module pins that contract across drift,
teleports, mixed-radius request sequences, population churn and the
numpy-only fallback.
"""

import random

import numpy as np
import pytest

from repro.core import CPVFScheme
from repro.experiments.common import SMOKE_SCALE, make_config, make_world
from repro.geometry import Vec2
from repro.network import LINK_EPS
from repro.obs import Telemetry
from repro.sim.lifecycle import FaultInjector, sensor_failure, sensor_join
from repro.spatial import PairStore, SpatialIndex
from repro.spatial import pairstore as pairstore_mod
from repro.spatial.pairstore import directed_pairs_sorted
from tests.oracles import uncached

FIELD = 200.0


def _world(n=60, seed=4):
    config = make_config(SMOKE_SCALE, sensor_count=n, seed=seed)
    return make_world(config, SMOKE_SCALE)


def _coords(rng, n, size=FIELD):
    x = np.array([rng.uniform(0.0, size) for _ in range(n)], dtype=float)
    y = np.array([rng.uniform(0.0, size) for _ in range(n)], dtype=float)
    return x, y


def _fresh_pairs(x, y, limit):
    """The reference pair generation the store must reproduce exactly."""
    idx = SpatialIndex(max(limit, 1e-9) * 1.001 / 2.0).build(
        np.column_stack([x, y])
    )
    return idx.neighbor_pairs_directed(limit)


def _world_arrays(world):
    xs = np.array([s.position.x for s in world.sensors], dtype=float)
    ys = np.array([s.position.y for s in world.sensors], dtype=float)
    return xs, ys


def _assert_exact(got, expected):
    grows, gcols, gd2 = got
    erows, ecols, ed2 = expected
    assert np.array_equal(grows, erows)
    assert np.array_equal(gcols, ecols)
    # Bit-identical float64 distances, not approx: downstream nesting
    # derivations re-mask these values against squared limits.
    assert np.array_equal(gd2, ed2)


def _jiggle(rng, world, step):
    for sensor in world.sensors:
        p = sensor.position
        sensor.motion.move_to(
            Vec2(
                min(FIELD, max(0.0, p.x + rng.uniform(-step, step))),
                min(FIELD, max(0.0, p.y + rng.uniform(-step, step))),
            )
        )


class TestDirectedPairsSorted:
    @pytest.mark.parametrize("trial", range(8))
    def test_matches_spatial_index_exactly(self, trial):
        rng = random.Random(900 + trial)
        n = rng.randint(2, 120)
        x, y = _coords(rng, n)
        limit = rng.uniform(5.0, 80.0)
        _assert_exact(
            directed_pairs_sorted(x, y, limit), _fresh_pairs(x, y, limit)
        )

    def test_fallback_path_matches(self, monkeypatch):
        """numpy-only CI path == kd-tree path (same exact predicate)."""
        rng = random.Random(17)
        x, y = _coords(rng, 80)
        with_tree = directed_pairs_sorted(x, y, 40.0)
        monkeypatch.setattr(pairstore_mod, "cKDTree", None)
        _assert_exact(directed_pairs_sorted(x, y, 40.0), with_tree)

    def test_degenerate_inputs(self):
        rows, cols, d2 = directed_pairs_sorted(
            np.array([1.0]), np.array([1.0]), 10.0
        )
        assert len(rows) == len(cols) == len(d2) == 0
        x = np.array([0.0, 1.0])
        rows, cols, d2 = directed_pairs_sorted(x, x, -1.0)
        assert len(rows) == 0


class TestPairStore:
    @pytest.mark.parametrize("trial", range(6))
    def test_serve_exact_within_drift_budget(self, trial):
        rng = random.Random(300 + trial)
        x, y = _coords(rng, 90)
        limit = 45.0
        store = PairStore.build(x, y, limit * 1.2)
        budget = 0.5 * (store.limit - limit) - 1e-6
        for _ in range(4):
            # Drift every sensor strictly inside the budget.
            theta = np.array([rng.uniform(0, 6.28) for _ in range(len(x))])
            r = np.array(
                [rng.uniform(0, budget * 0.95) for _ in range(len(x))]
            )
            lx = np.clip(store.ax + r * np.cos(theta), 0, FIELD)
            ly = np.clip(store.ay + r * np.sin(theta), 0, FIELD)
            assert len(store.movers(lx, ly, limit)) == 0
            _assert_exact(
                store.serve(lx, ly, limit), _fresh_pairs(lx, ly, limit)
            )

    @pytest.mark.parametrize("trial", range(6))
    def test_repaired_store_equals_rebuilt_store(self, trial):
        """After repair the arrays equal a fresh build over the anchors."""
        rng = random.Random(500 + trial)
        x, y = _coords(rng, 90)
        limit = 45.0
        store = PairStore.build(x, y, limit * 1.2)
        lx, ly = x.copy(), y.copy()
        for _ in range(3):
            # Teleport a few sensors far beyond the budget.
            for m in rng.sample(range(len(x)), rng.randint(1, 6)):
                lx[m] = rng.uniform(0, FIELD)
                ly[m] = rng.uniform(0, FIELD)
            movers = store.movers(lx, ly, limit)
            assert len(movers) > 0
            store.repair(lx, ly, movers)
            rebuilt = PairStore.build(store.ax, store.ay, store.limit)
            assert np.array_equal(store.rows, rebuilt.rows)
            assert np.array_equal(store.cols, rebuilt.cols)
            assert np.array_equal(store.counts, rebuilt.counts)
            # Movers are re-anchored, so the serve is exact again.
            assert len(store.movers(lx, ly, limit)) == 0
            _assert_exact(
                store.serve(lx, ly, limit), _fresh_pairs(lx, ly, limit)
            )

    def test_repair_fallback_path_matches(self, monkeypatch):
        rng = random.Random(23)
        x, y = _coords(rng, 70)
        limit = 40.0

        def run():
            store = PairStore.build(x, y, limit * 1.2)
            lx, ly = x.copy(), y.copy()
            for m in (3, 11, 40):
                lx[m] = rng_fixed[m][0]
                ly[m] = rng_fixed[m][1]
            store.repair(lx, ly, np.array([3, 11, 40]))
            return store

        rng_fixed = {m: (rng.uniform(0, FIELD), rng.uniform(0, FIELD))
                     for m in (3, 11, 40)}
        with_tree = run()
        monkeypatch.setattr(pairstore_mod, "cKDTree", None)
        without = run()
        assert np.array_equal(with_tree.rows, without.rows)
        assert np.array_equal(with_tree.cols, without.cols)

    def test_unserveable_requests_return_none(self):
        rng = random.Random(5)
        x, y = _coords(rng, 20)
        store = PairStore.build(x, y, 50.0)
        assert store.movers(x, y, 51.0) is None  # beyond inflated radius
        assert store.movers(x[:-1], y[:-1], 40.0) is None  # churned length


def _traced(world):
    """Install a live telemetry collector: the cache reports every pair
    request as ``cpvf.pairs_repaired`` (serve or repair) or
    ``cpvf.pairs_rebuilt``."""
    tel = Telemetry()
    world.telemetry = tel
    return tel


def _events(tel):
    return (
        tel.counter("cpvf.pairs_repaired"),
        tel.counter("cpvf.pairs_rebuilt"),
    )


class TestWorldIncrementalPairs:
    """The cache-level integration: drift cycles, events, exactness."""

    def _expected(self, world, extra):
        xs, ys = _world_arrays(world)
        limit = world.config.communication_range + LINK_EPS + extra
        return _fresh_pairs(xs, ys, limit)

    @pytest.mark.parametrize("seed", [1, 9])
    def test_drift_cycle_parity_all_radii(self, seed):
        """Small per-period drift: serves/repairs stay exact vs rebuild."""
        world = _world(n=70, seed=seed)
        rng = random.Random(seed)
        tel = _traced(world)
        extras = (7.5, 0.0)  # larger first: the 0.0 answer masks its store
        for period in range(10):
            _jiggle(rng, world, step=1.5)
            if period == 6:
                # A handful of teleports forces the repair path.
                for sid in (0, 3, 9):
                    world.sensors[sid].motion.move_to(
                        Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD))
                    )
            for extra in extras:
                got = world.neighbor_pairs(extra, with_d2=True)
                _assert_exact(got, self._expected(world, extra))
        repaired, rebuilt = _events(tel)
        # Every request is reported exactly once, and the maintained
        # store carries the run: the first request builds it, later ones
        # serve or repair.
        assert repaired + rebuilt == 2 * 10
        assert rebuilt >= 1
        assert repaired >= 3
        phases = tel.summary().phases
        assert "cpvf.pairs" in phases and "cpvf.pairs_incremental" in phases

    def test_mass_teleport_triggers_rebuild_and_stays_exact(self):
        world = _world(n=60, seed=3)
        rng = random.Random(3)
        tel = _traced(world)
        world.neighbor_pairs()  # build the store
        for sensor in world.sensors:
            sensor.motion.move_to(
                Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD))
            )
        got = world.neighbor_pairs(with_d2=True)
        assert _events(tel) == (0, 2)
        _assert_exact(got, self._expected(world, 0.0))

    def test_mixed_radius_sequence_regression(self):
        """0 -> r -> 0 across epochs: every answer exact, store swaps.

        The store is sized for the radius it last served; a larger
        request must rebuild it (movers() returns None), and the return
        to the smaller radius must serve from the bigger store by
        masking — never a stale or truncated pair set.
        """
        world = _world(n=60, seed=11)
        tel = _traced(world)
        # The store is inflated by 20%, so an extra beyond 0.2 * rc
        # cannot be served from the 0-radius store.
        big = 0.25 * world.config.communication_range
        sequence = (0.0, big, 0.0)
        for period, extra in enumerate(sequence):
            world.sensors[0].motion.move_to(
                world.sensors[0].position + Vec2(0.01, 0.0)
            )
            got = world.neighbor_pairs(extra, with_d2=True)
            _assert_exact(got, self._expected(world, extra))
        # Step 1 builds, step 2 outgrows the store (rebuild at the
        # inflated radius), step 3 serves the smaller radius from it.
        assert _events(tel) == (1, 2)
        # And the 0-radius answer still equals the neighbour table.
        rows, cols = world.neighbor_pairs()
        table = world.neighbor_table()
        rebuilt = {sid: [] for sid in table}
        for r, c in zip(rows.tolist(), cols.tolist()):
            rebuilt[world.sensors[r].sensor_id].append(
                world.sensors[c].sensor_id
            )
        assert rebuilt == table


class TestChurnInvalidation:
    """Population churn: one rebuild, then the store serves again."""

    @pytest.mark.parametrize("trial", range(4))
    def test_churned_pairs_served_by_store_and_match_oracle(self, trial):
        """After a failure and a join, the batched kernel's periodic
        request is answered by the store (serve or repair) over the
        survivors, not rebuilt every period, and each answer is
        bit-identical to the brute-force oracle's."""
        world = _world(n=50, seed=trial)
        scheme = CPVFScheme(mode="batched")
        scheme.initialize(world)
        tel = _traced(world)
        injector = FaultInjector(
            world,
            scheme,
            [sensor_failure(2, count=4), sensor_join(2, count=3)],
        )
        extra = 2.0 * world.config.max_step
        cache = world._cache()
        after_churn = None
        for period in range(10):
            if period == 2:
                after_churn = _events(tel)
            injector.fire(period)
            scheme.step(world)
            got = world.neighbor_pairs(extra, with_d2=True)
            _assert_exact(got, uncached(world).neighbor_pairs(extra, with_d2=True))
            # The store answered, anchored over exactly the survivors.
            assert cache._pair_store is not None
            assert cache._pair_store.n == world.alive_count()
        assert world.alive_count() < len(world.sensors)
        repaired, rebuilt = _events(tel)
        repaired -= after_churn[0]
        rebuilt -= after_churn[1]
        # Eight churned periods, two requests each (kernel + check).  The
        # churn costs one rebuild and mass drift an occasional other one;
        # the rest are served by the store.
        assert repaired + rebuilt == 2 * 8
        assert 1 <= rebuilt <= 4

    def test_churn_drops_the_store(self):
        rng = random.Random(42)
        world = _world(n=40, seed=6)
        world.neighbor_pairs()
        cache = world._cache()
        assert cache._pair_store is not None
        world.remove_sensor(5)
        # Churn drops the store wholesale — its anchors are meaningless
        # over a different population.
        assert cache._pair_store is None
        world.neighbor_pairs()
        assert cache._pair_store is not None
        world.add_sensor(Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD)))
        assert cache._pair_store is None
        tel = _traced(world)
        got = world.neighbor_pairs(with_d2=True)
        assert _events(tel) == (0, 1)
        alive = world.alive_sensors()
        xs = np.array([s.position.x for s in alive], dtype=float)
        ys = np.array([s.position.y for s in alive], dtype=float)
        limit = world.config.communication_range + LINK_EPS
        rows, cols, d2 = _fresh_pairs(xs, ys, limit)
        ids = np.array([s.sensor_id for s in alive], dtype=np.intp)
        _assert_exact(got, (ids[rows], ids[cols], d2))

    @pytest.mark.parametrize("trial", range(8))
    def test_churned_drift_served_by_store_all_radii(self, trial):
        """Failures and joins, then drift: after the one rebuild the
        churn costs, every request (both radii, every period) is served
        or repaired from the survivors' store, bit-identical to the
        oracle's answer."""
        rng = random.Random(100 + trial)
        world = _world(n=50, seed=trial)
        world.neighbor_pairs()
        for sid in rng.sample(range(len(world.sensors)), 5):
            world.remove_sensor(sid)
        for _ in range(3):
            world.add_sensor(Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD)))
        tel = _traced(world)
        extras = (0.5 * world.config.max_step, 0.0)
        for _ in range(6):
            _jiggle(rng, world, step=0.5)
            for extra in extras:
                got = world.neighbor_pairs(extra, with_d2=True)
                _assert_exact(
                    got, uncached(world).neighbor_pairs(extra, with_d2=True)
                )
                assert world._cache()._pair_store.n == world.alive_count()
        repaired, rebuilt = _events(tel)
        assert repaired + rebuilt == 2 * 6
        assert rebuilt == 1
