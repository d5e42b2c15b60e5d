"""Property-style parity tests: fast paths vs brute-force implementations.

Randomized layouts — with and without obstacles, with and without
population churn — must produce *identical* neighbor tables,
base-station adjacency, connectivity verdicts and coverage fractions
through the spatial-index/cache/incremental paths and through the
brute-force references (``tests.oracles.BruteRadio``,
``tests.oracles.UncachedWorld``, ``Field.coverage_fraction``).
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.field import Field, two_obstacle_field
from repro.geometry import Vec2
from repro.metrics.connectivity import connected_components, positions_are_connected
from repro.sim import (
    FaultInjector,
    SimulationConfig,
    World,
    obstacle_appear,
    obstacle_clear,
    sensor_failure,
    sensor_join,
)
from repro.spatial import IncrementalCoverage
from repro.spatial.cache import DENSE_TABLE_MAX
from tests.oracles import BruteRadio, double_loop_components, uncached

FIELD_SIZE = 300.0

#: Trials past the random ones, with their populations: both above
#: ``DENSE_TABLE_MAX``, so the table is built through the ``SpatialIndex``.
#: The churn tests fail a quarter of the sensors, which takes 151 back to
#: the dense block and leaves 240 on the index.
LARGE_TRIALS = {8: 151, 9: 240}
assert min(LARGE_TRIALS.values()) > DENSE_TABLE_MAX
#: Trials 0-7 draw 2-60 sensors; the large trials follow.
TRIALS = [
    *range(8),
    *(pytest.param(trial, id=f"n{n}") for trial, n in LARGE_TRIALS.items()),
]


def random_world(trial, n=None, with_obstacles=False):
    rng = random.Random(trial)
    if n is None:
        n = LARGE_TRIALS.get(trial) or rng.randint(2, 60)
    field = (
        two_obstacle_field(FIELD_SIZE)
        if with_obstacles
        else Field(FIELD_SIZE, FIELD_SIZE)
    )
    config = SimulationConfig(
        sensor_count=n,
        communication_range=rng.uniform(20.0, 70.0),
        sensing_range=rng.uniform(15.0, 50.0),
        duration=10.0,
        coverage_resolution=15.0,
        seed=trial,
    )
    positions = []
    while len(positions) < n:
        p = Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        if field.is_free(p):
            positions.append(p)
    return World.create(config, field, initial_positions=positions)


def brute(world):
    return BruteRadio(world.config.communication_range)


def churn(world, rng):
    """Fail about a quarter of the sensors and inject a few new ones.

    Failed sensors keep their slots in ``world.sensors``; every query
    must then answer over the survivors and the newcomers only.
    """
    n = len(world.sensors)
    for sid in rng.sample(range(n), max(1, n // 4)):
        world.remove_sensor(sid)
    for _ in range(rng.randint(1, 4)):
        world.add_sensor(
            Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        )


def scatter(world, rng, count):
    """Move ``count`` random sensors to fresh free positions."""
    for _ in range(count):
        sensor = world.sensors[rng.randrange(len(world.sensors))]
        while True:
            p = Vec2(
                rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE)
            )
            if world.field.is_free(p):
                sensor.motion.relocate(p, "test")
                break


class TestNeighborTableParity:
    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("trial", TRIALS)
    def test_indexed_table_matches_bruteforce(self, trial, with_obstacles):
        world = random_world(trial, with_obstacles=with_obstacles)
        # The world-level (cached) path agrees — including list order.
        assert world.neighbor_table() == brute(world).neighbor_table(
            world.sensors
        )

    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("trial", TRIALS)
    def test_churned_table_matches_bruteforce(self, trial, with_obstacles):
        world = random_world(trial, with_obstacles=with_obstacles)
        world.neighbor_table()  # warm the cache before the churn
        churn(world, random.Random(5000 + trial))
        table = world.neighbor_table()
        assert table == uncached(world).neighbor_table()
        failed = {s.sensor_id for s in world.sensors} - {
            s.sensor_id for s in world.alive_sensors()
        }
        assert failed and failed.isdisjoint(table)


class TestBaseStationAndConnectivityParity:
    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("trial", TRIALS)
    def test_cached_queries_match_brute(self, trial, with_obstacles):
        world = random_world(trial, with_obstacles=with_obstacles)
        radio = brute(world)
        base = world.base_station
        assert world.sensors_near_base_station() == radio.neighbors_of_point(
            base, world.sensors
        )
        assert world.connected_component_of() == radio.connected_component_of(
            world.sensors, base
        )
        assert world.network_is_connected() == radio.network_is_connected(
            world.sensors, base
        )

    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("trial", TRIALS)
    def test_churned_queries_match_brute(self, trial, with_obstacles):
        world = random_world(trial, with_obstacles=with_obstacles)
        world.connected_component_of()  # warm the cache before the churn
        churn(world, random.Random(6000 + trial))
        oracle = uncached(world)
        assert (
            world.sensors_near_base_station()
            == oracle.sensors_near_base_station()
        )
        assert world.connected_component_of() == oracle.connected_component_of()
        assert world.network_is_connected() == oracle.network_is_connected()

    @pytest.mark.parametrize("trial", range(8))
    def test_cache_tracks_movement(self, trial):
        world = random_world(trial, n=40)
        rng = random.Random(2000 + trial)
        radio = brute(world)
        for _ in range(5):
            scatter(world, rng, 3)
            assert world.neighbor_table() == radio.neighbor_table(world.sensors)
            assert world.sensors_near_base_station() == (
                radio.neighbors_of_point(world.base_station, world.sensors)
            )

    @pytest.mark.parametrize("trial", range(8))
    def test_churned_cache_tracks_movement(self, trial):
        world = random_world(trial, n=40)
        rng = random.Random(2000 + trial)
        churn(world, rng)
        for _ in range(5):
            for sensor in rng.sample(world.alive_sensors(), 3):
                while True:
                    p = Vec2(
                        rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE)
                    )
                    if world.field.is_free(p):
                        sensor.motion.relocate(p, "test")
                        break
            oracle = uncached(world)
            assert world.neighbor_table() == oracle.neighbor_table()
            assert (
                world.sensors_near_base_station()
                == oracle.sensors_near_base_station()
            )

    def test_cache_invalidates_on_range_change(self):
        world = random_world(5, n=30)
        before = world.neighbor_table()
        # Changing the configured range mid-run must not serve the stale
        # table.
        world.config = replace(
            world.config, communication_range=2.0 * world.config.communication_range
        )
        after = world.neighbor_table()
        assert after != before
        assert after == brute(world).neighbor_table(world.sensors)
        assert world.sensors_near_base_station() == (
            brute(world).neighbors_of_point(world.base_station, world.sensors)
        )
        assert world.neighbor_table() is not world.neighbor_table()  # copies

    @pytest.mark.parametrize("trial", range(10))
    def test_metrics_components_match_bruteforce(self, trial):
        rng = random.Random(3000 + trial)
        n = rng.randint(0, 80)
        positions = [
            Vec2(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(n)
        ]
        rc = rng.uniform(5.0, 60.0)
        assert connected_components(positions, rc) == double_loop_components(
            positions, rc
        )
        base = Vec2(0.0, 0.0)
        assert positions_are_connected(positions, rc, base) == (
            len(connected_components(positions + [base], rc)) == 1
        )


class TestCoverageParity:
    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("trial", range(6))
    def test_incremental_matches_bruteforce_over_moves(
        self, trial, with_obstacles
    ):
        world = random_world(trial, n=25, with_obstacles=with_obstacles)
        rng = random.Random(4000 + trial)
        rs = world.config.sensing_range
        res = world.config.coverage_resolution
        for _ in range(6):
            brute = world.field.coverage_fraction(world.positions(), rs, res)
            assert world.coverage() == brute
            scatter(world, rng, rng.randint(1, 5))

    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("trial", range(3))
    def test_tracker_follows_lifecycle_churn(self, trial, with_obstacles):
        # Failures, joins, a door slamming and doors opening, with a few
        # sensors moving every period: the tracker must equal the brute
        # scan over the survivors and the current obstacle set throughout.
        world = random_world(trial, n=30, with_obstacles=with_obstacles)
        layout = len(world.field.obstacles)
        events = [
            sensor_failure(at_period=2, count=4),
            sensor_join(at_period=4, count=3),
            obstacle_appear(at_period=6, xmin=90, ymin=90, xmax=170, ymax=150),
            sensor_failure(at_period=8, fraction=0.2, selection="interior"),
            sensor_join(at_period=8, count=2, x=150.0, y=150.0, radius=60.0),
            obstacle_clear(at_period=10, index=layout),
        ]
        if with_obstacles:
            events.append(obstacle_clear(at_period=12, index=0))
        injector = FaultInjector(world, object(), events)
        rng = random.Random(7000 + trial)
        rs = world.config.sensing_range
        res = world.config.coverage_resolution
        for period in range(15):
            world.period_index = period
            injector.fire(period)
            scatter(world, rng, rng.randint(0, 4))
            injector.observe(period)
            alive = [s.position for s in world.alive_sensors()]
            assert world.coverage() == world.field.coverage_fraction(
                alive, rs, res
            )
        assert len(world.field.obstacles) == max(0, layout - 1)

    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("trial", range(6))
    def test_tracker_equals_brute_force_after_random_updates(
        self, trial, with_obstacles
    ):
        """Random moves, updates that move nothing, joins and failures:
        after each the tracker's fraction is the brute-force scan's,
        with disks clipped at the grid edges and at an obstacle mask."""
        field = (
            two_obstacle_field(FIELD_SIZE)
            if with_obstacles
            else Field(FIELD_SIZE, FIELD_SIZE)
        )
        rng = np.random.default_rng(500 + trial)
        radius = float(rng.uniform(10.0, 60.0))
        resolution = float(rng.choice([7.5, 10.0, 15.0]))
        tracker = IncrementalCoverage(field, radius, resolution)
        # Centres a little past the edges, so some disks are clipped.
        pts = rng.uniform(-20.0, FIELD_SIZE + 20.0, size=(20, 2))
        assert tracker.update(pts) == len(pts)
        for _ in range(12):
            op = rng.choice(["move", "move", "still", "join", "fail"])
            if op == "move":
                moved = rng.random(len(pts)) < 0.3
                pts = pts.copy()
                pts[moved] = rng.uniform(
                    -20.0, FIELD_SIZE + 20.0, size=(int(moved.sum()), 2)
                )
                disks = tracker.update(pts)
                assert disks == 2 * int(moved.sum())
            elif op == "still":
                assert tracker.update(pts.copy()) == 0
            elif op == "join":
                pts = np.vstack((pts, rng.uniform(0.0, FIELD_SIZE, size=(3, 2))))
                assert tracker.update(pts) == len(pts)
            elif len(pts) > 2:
                pts = np.delete(pts, rng.integers(0, len(pts)), axis=0)
                assert tracker.update(pts) == len(pts)
            assert tracker.covered_fraction() == field.coverage_fraction(
                [Vec2(x, y) for x, y in pts], radius, resolution
            )

    def test_tracker_handles_population_change(self):
        field = Field(FIELD_SIZE, FIELD_SIZE)
        tracker = IncrementalCoverage(field, 30.0, 15.0)
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, FIELD_SIZE, size=(10, 2))
        tracker.update(pts)
        first = tracker.covered_fraction()
        assert first == field.coverage_fraction(
            [Vec2(x, y) for x, y in pts], 30.0, 15.0
        )
        pts = rng.uniform(0, FIELD_SIZE, size=(25, 2))  # rebuild path
        tracker.update(pts)
        assert tracker.covered_fraction() == field.coverage_fraction(
            [Vec2(x, y) for x, y in pts], 30.0, 15.0
        )

    def test_rebuild_to_no_sensors_covers_nothing(self):
        field = Field(FIELD_SIZE, FIELD_SIZE)
        tracker = IncrementalCoverage(field, 30.0, 15.0)
        tracker.update(np.array([[100.0, 100.0], [200.0, 150.0]]))
        assert tracker.covered_fraction() > 0.0
        assert tracker.update(np.empty((0, 2))) == 0
        assert tracker.covered_fraction() == 0.0

    def test_zero_radius_covers_nothing(self):
        field = Field(FIELD_SIZE, FIELD_SIZE)
        tracker = IncrementalCoverage(field, 0.0, 15.0)
        tracker.update(np.array([[10.0, 10.0]]))
        assert tracker.covered_fraction() == 0.0
