"""The neighbour cache under drift, teleports, range changes and churn.

``NeighborCache`` keeps one ``NeighborSnapshot`` per epoch (position
versions, range and population version), which builds its neighbour
table (through a spatial index above ``DENSE_TABLE_MAX`` live sensors),
base-station adjacency and component on first use.
The contract: an unchanged epoch serves the snapshot and the structures
it already built, and every answer after any change —
per-period drift, a few teleports, a mass teleport, a range change,
failures and joins, a CPVF run with a fault timeline — equals the
brute-force oracle's answer over the live sensors.
"""

import random
from dataclasses import replace

import pytest

from repro.core import CPVFScheme
from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.geometry import Vec2
from repro.sim.lifecycle import FaultInjector, sensor_failure, sensor_join
from repro.spatial.cache import DENSE_TABLE_MAX
from tests.oracles import uncached

FIELD = 200.0


def _world(n=60, seed=4):
    return make_scenario(SMOKE_SCALE, sensor_count=n, seed=seed).build_world()


def _jiggle(rng, world, step):
    for sensor in world.alive_sensors():
        p = sensor.position
        sensor.motion.move_to(
            Vec2(
                min(FIELD, max(0.0, p.x + rng.uniform(-step, step))),
                min(FIELD, max(0.0, p.y + rng.uniform(-step, step))),
            )
        )


def _teleport(rng, sensor):
    sensor.motion.move_to(Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD)))


def _assert_matches_oracle(world):
    oracle = uncached(world)
    assert world.neighbor_table() == oracle.neighbor_table()
    every_id = range(len(world.sensors))
    assert (
        world.neighbor_snapshot().rows(every_id)
        == oracle.neighbor_snapshot().rows(every_id)
    )
    assert world.sensors_near_base_station() == oracle.sensors_near_base_station()
    assert world.connected_component_of() == oracle.connected_component_of()
    assert world.network_is_connected() == oracle.network_is_connected()


class TestEpochs:
    def test_unchanged_layout_serves_the_cached_structures(self):
        def built(snapshot):
            return (
                snapshot._index,
                snapshot._table,
                snapshot._base_neighbors,
                snapshot._component,
            )

        # On both sides of the dense-table cut: no index up to it.
        for n in (60, DENSE_TABLE_MAX + 40):
            world = _world(n)
            world.neighbor_table()
            world.connected_component_of()
            snapshot = world.neighbor_snapshot()
            first = built(snapshot)
            assert (first[0] is None) == (n <= DENSE_TABLE_MAX), n
            assert all(part is not None for part in first[1:]), n
            world.neighbor_table()
            world.connected_component_of()
            world.neighbor_snapshot().rows([0, 1])
            assert world.neighbor_snapshot() is snapshot
            assert all(a is b for a, b in zip(built(snapshot), first)), n

    def test_one_move_rebuilds_and_copies_stay_private(self):
        world = _world()
        table = world.neighbor_table()
        first = world.neighbor_snapshot()
        # Mutating a returned copy never reaches the cache.
        table[world.sensors[0].sensor_id].append(-99)
        assert -99 not in world.neighbor_table()[world.sensors[0].sensor_id]
        assert world.neighbor_snapshot() is first
        world.sensors[1].motion.move_to(world.sensors[1].position + Vec2(0.01, 0.0))
        world.neighbor_table()
        assert world.neighbor_snapshot() is not first
        _assert_matches_oracle(world)

    def test_range_change_invalidates(self):
        world = _world(n=60, seed=11)
        rc = world.config.communication_range
        for new_rc in (rc, 1.25 * rc, 0.5 * rc, rc):
            world.config = replace(world.config, communication_range=new_rc)
            _assert_matches_oracle(world)


class TestDrift:
    @pytest.mark.parametrize("trial", range(6))
    def test_small_drift_matches_oracle_every_period(self, trial):
        rng = random.Random(300 + trial)
        world = _world(n=70, seed=trial)
        for _ in range(5):
            _jiggle(rng, world, step=0.5)
            _assert_matches_oracle(world)

    @pytest.mark.parametrize("trial", range(6))
    def test_teleports_match_oracle(self, trial):
        rng = random.Random(500 + trial)
        world = _world(n=70, seed=trial)
        world.neighbor_table()
        for _ in range(3):
            for sid in rng.sample(range(len(world.sensors)), rng.randint(1, 6)):
                _teleport(rng, world.sensors[sid])
            _assert_matches_oracle(world)

    @pytest.mark.parametrize("seed", [1, 9])
    def test_drift_cycle_with_teleports(self, seed):
        world = _world(n=70, seed=seed)
        rng = random.Random(seed)
        for period in range(10):
            _jiggle(rng, world, step=1.5)
            if period == 6:
                for sid in (0, 3, 9):
                    _teleport(rng, world.sensors[sid])
            _assert_matches_oracle(world)

    def test_mass_teleport(self):
        world = _world(n=60, seed=3)
        rng = random.Random(3)
        world.neighbor_table()
        for sensor in world.sensors:
            _teleport(rng, sensor)
        _assert_matches_oracle(world)


class TestChurn:
    @pytest.mark.parametrize("trial", range(4))
    def test_cpvf_run_with_churn_matches_oracle(self, trial):
        """A failure and a join mid-run: every period's answers over the
        survivors equal the oracle's."""
        world = _world(n=50, seed=trial)
        scheme = CPVFScheme()
        scheme.initialize(world)
        injector = FaultInjector(
            world,
            scheme,
            [sensor_failure(2, count=4), sensor_join(2, count=3)],
        )
        for period in range(10):
            injector.fire(period)
            scheme.step(world)
            _assert_matches_oracle(world)
        assert world.alive_count() < len(world.sensors)

    def test_churn_drops_the_cached_structures(self):
        rng = random.Random(42)
        world = _world(n=40, seed=6)
        world.neighbor_table()
        before = world.neighbor_snapshot()
        world.remove_sensor(5)
        table = world.neighbor_table()
        assert world.neighbor_snapshot() is not before
        assert 5 not in table
        before = world.neighbor_snapshot()
        added = world.add_sensor(
            Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD))
        )
        table = world.neighbor_table()
        assert world.neighbor_snapshot() is not before
        assert added.sensor_id in table
        _assert_matches_oracle(world)

    @pytest.mark.parametrize("trial", range(8))
    def test_churned_drift_matches_oracle(self, trial):
        """Failures and joins, then drift: every period's answers equal
        the oracle's over the survivors and newcomers."""
        rng = random.Random(100 + trial)
        world = _world(n=50, seed=trial)
        world.neighbor_table()
        for sid in rng.sample(range(len(world.sensors)), 5):
            world.remove_sensor(sid)
        for _ in range(3):
            world.add_sensor(Vec2(rng.uniform(0, FIELD), rng.uniform(0, FIELD)))
        for _ in range(6):
            _jiggle(rng, world, step=0.5)
            _assert_matches_oracle(world)
            assert len(world.neighbor_table()) == world.alive_count()
