"""Parity tests for the CPVF step ladder and the parent-change scan.

``max_valid_step_points`` (the production ladder over stationary links)
and the paper's literal ladder ``max_valid_step_reference`` claim to
return the same decision.  The one fraction-outer parent-change scan
claims to pick the same (step, new parent) as the seed per-candidate
ladder (``SeedCPVF._best_parent_ladder``) on candidates read from the
protocol table (``_try_parent_change``).  These tests pin those
equivalences with randomized trials so an edit to one copy cannot
silently diverge from the other.
"""

import copy
import random

import pytest

from repro.core.connectivity import max_valid_step_points
from repro.core.cpvf import CPVFScheme
from repro.field import Field
from repro.geometry import Vec2
from repro.network import BASE_STATION_ID
from repro.sim import SimulationConfig, World
from tests.oracles import NeighborMotion, SeedCPVF, max_valid_step_reference


class TestLadderParity:
    @pytest.mark.parametrize("trial", range(25))
    def test_fast_ladder_matches_reference(self, trial):
        rng = random.Random(trial)
        for _ in range(200):
            position = Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50))
            direction = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            max_step = rng.choice([0.0, rng.uniform(0.1, 30.0)])
            rc = rng.uniform(5.0, 70.0)
            links = [
                (rng.uniform(-80, 80), rng.uniform(-80, 80))
                for _ in range(rng.randint(0, 4))
            ]
            neighbors = [NeighborMotion.stationary(Vec2(x, y)) for x, y in links]
            expected = max_valid_step_reference(
                position, direction, max_step, neighbors, rc
            )
            assert max_valid_step_points(
                position.x, position.y, direction.x, direction.y,
                max_step, links, rc,
            ) == expected

    def test_degenerate_direction_and_zero_step(self):
        pos = Vec2(1.0, 2.0)
        links = [(3.0, 2.0)]
        nb = [NeighborMotion.stationary(Vec2(3.0, 2.0))]
        for direction, max_step in [
            (Vec2(0.0, 0.0), 10.0),
            (Vec2(1e-12, 0.0), 10.0),
            (Vec2(1.0, 0.0), 0.0),
        ]:
            assert max_valid_step_reference(
                pos, direction, max_step, nb, 5.0
            ) == 0.0
            assert max_valid_step_points(
                pos.x, pos.y, direction.x, direction.y, max_step, links, 5.0
            ) == 0.0


def _random_world(trial):
    rng = random.Random(100 + trial)
    n = 14
    config = SimulationConfig(
        sensor_count=n,
        communication_range=rng.uniform(25.0, 50.0),
        sensing_range=30.0,
        # Steps up to about half of rc, so partial ladder steps and
        # blocked candidates are common.
        max_speed=rng.uniform(2.0, 25.0),
        duration=5.0,
        seed=trial,
    )
    positions = [Vec2(rng.uniform(0, 70), rng.uniform(0, 70)) for _ in range(n)]
    world = World.create(config, Field(200.0, 200.0), positions)
    CPVFScheme().initialize(world)
    return world, rng


class TestParentChangeParity:
    @pytest.mark.parametrize("trial", range(12))
    def test_fraction_outer_scan_matches_seed_ladder(self, trial):
        """The seed ladder and the parent change pick the same (step, new
        parent)."""
        world, rng = _random_world(trial)
        table = world.neighbor_table()
        rc = world.config.communication_range
        compared = 0
        for sensor in world.sensors:
            if not sensor.is_connected():
                continue
            sid = sensor.sensor_id
            direction = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1)).normalized()
            if direction.norm() == 0.0:
                continue
            subtree = world.tree.subtree_of(sid)
            table_candidates = []
            if sensor.position.distance_to(world.base_station) <= rc:
                table_candidates.append(BASE_STATION_ID)
            table_candidates += [
                c
                for c in table[sid]
                if world.sensor(c).is_connected() and c not in subtree
            ]

            seed_world = copy.deepcopy(world)
            seed_step = SeedCPVF()._best_parent_ladder(
                seed_world, seed_world.sensor(sid), direction, table_candidates
            )

            fast_world = copy.deepcopy(world)
            fast_step = CPVFScheme()._try_parent_change(
                fast_world, fast_world.sensor(sid), direction.x, direction.y, table
            )

            assert fast_step == seed_step
            parent = fast_world.tree.parent_of(sid)
            assert parent == seed_world.tree.parent_of(sid)
            compared += 1
        assert compared  # the layout produced at least one comparable sensor
