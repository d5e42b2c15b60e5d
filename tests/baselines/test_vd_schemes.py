"""Tests for the VOR and Minimax baselines."""

import random

import pytest

from repro.baselines import MinimaxScheme, VorScheme, explode
from repro.field import obstacle_free_field, uniform_initial_positions
from repro.geometry import Vec2
from repro.sim import SimulationConfig, SimulationEngine, World, WorldChange
from tests.oracles import InformedVorScheme


def random_layout(count, field, seed=1):
    return uniform_initial_positions(count, random.Random(seed), field)


def make_world(layout, rc, rs, duration, field=None, seed=1):
    field = field or obstacle_free_field(500.0)
    config = SimulationConfig(
        sensor_count=len(layout),
        communication_range=rc,
        sensing_range=rs,
        duration=duration,
        coverage_resolution=20.0,
        seed=seed,
    )
    return World.create(config, field, initial_positions=list(layout))


def deploy(scheme, layout, rc, rs):
    """A world of ``layout`` after the scheme's explosion, with one
    Voronoi round per period (the horizon is ``scheme.rounds`` periods)."""
    world = make_world(layout, rc, rs, duration=float(scheme.rounds))
    scheme.initialize(world)
    return world


def play(scheme, world, periods):
    for period in range(periods):
        world.period_index = period
        scheme.step(world)


def odometers(world):
    return [s.moving_distance for s in world.sensors]


class TestVor:
    def test_rounds_improve_coverage(self):
        field = obstacle_free_field(500.0)
        scheme = VorScheme(rounds=8)
        world = deploy(scheme, random_layout(25, field, seed=2), 200.0, 60.0)
        before = world.coverage()
        play(scheme, world, 8)
        assert world.coverage() >= before

    def test_positions_stay_in_field(self):
        field = obstacle_free_field(500.0)
        scheme = VorScheme(rounds=5)
        world = deploy(scheme, random_layout(20, field, seed=3), 100.0, 60.0)
        play(scheme, world, 5)
        for p in world.positions():
            assert world.field.is_free(p)

    def test_per_round_move_bounded_by_half_rc(self):
        field = obstacle_free_field(500.0)
        rc = 80.0
        scheme = VorScheme(rounds=1)
        world = deploy(scheme, random_layout(15, field, seed=4), rc, 60.0)
        before = odometers(world)
        play(scheme, world, 1)
        moved = [b - a for a, b in zip(before, odometers(world))]
        assert max(moved) > 0.0
        for distance in moved:
            assert distance <= rc / 2.0 + 1e-6

    def test_distance_accounting_matches_displacement_for_one_round(self):
        field = obstacle_free_field(500.0)
        scheme = VorScheme(rounds=1)
        world = deploy(scheme, random_layout(10, field, seed=5), 100.0, 60.0)
        start, before = world.positions(), odometers(world)
        play(scheme, world, 1)
        for p0, p1, a, b in zip(
            start, world.positions(), before, odometers(world)
        ):
            assert b - a == pytest.approx(p0.distance_to(p1), abs=1e-9)

    def test_explosion_is_charged_to_the_odometers(self):
        field = obstacle_free_field(500.0)
        layout = random_layout(12, field, seed=6)
        world = deploy(VorScheme(), layout, 100.0, 60.0)
        exploded = explode(layout, field, random.Random(1))
        assert world.positions() == exploded.positions
        assert odometers(world) == exploded.per_sensor_distance

    def test_rounds_are_spread_over_the_horizon(self):
        field = obstacle_free_field(500.0)
        moved_at = []

        class Recording(VorScheme):
            def step(self, world):
                before = odometers(world)
                super().step(world)
                if odometers(world) != before:
                    moved_at.append(world.period_index)

        world = make_world(random_layout(20, field, seed=7), 100.0, 60.0, 30.0)
        result = SimulationEngine(world, Recording(rounds=3)).run()
        assert moved_at and set(moved_at) <= {0, 10, 20}
        assert result.converged_at is not None
        assert result.periods_executed <= 21


class TestMinimax:
    def test_rounds_improve_coverage(self):
        field = obstacle_free_field(500.0)
        scheme = MinimaxScheme(rounds=8)
        world = deploy(scheme, random_layout(25, field, seed=7), 200.0, 60.0)
        before = world.coverage()
        play(scheme, world, 8)
        assert world.coverage() >= before

    def test_single_sensor_moves_toward_field_center(self):
        scheme = MinimaxScheme(rounds=1)
        world = deploy(scheme, [Vec2(10, 10)], 1000.0, 60.0)
        play(scheme, world, 1)
        # Its cell is the whole field; the minimax point is the centre.
        assert world.sensors[0].position.almost_equals(Vec2(250, 250), eps=1.0)

    def test_positions_stay_in_field(self):
        field = obstacle_free_field(500.0)
        scheme = MinimaxScheme(rounds=5)
        world = deploy(scheme, random_layout(20, field, seed=8), 100.0, 60.0)
        play(scheme, world, 5)
        for p in world.positions():
            assert world.field.is_free(p)


class TestConvergence:
    def test_still_round_converges_and_a_world_change_voids_it(self):
        scheme = MinimaxScheme(rounds=5)
        world = deploy(scheme, [Vec2(10, 10)], 1000.0, 60.0)
        assert not scheme.has_converged(world)
        play(scheme, world, 2)  # to the centre, then nowhere
        assert scheme.has_converged(world)
        scheme.on_world_changed(world, WorldChange(kind="join"))
        assert not scheme.has_converged(world)

    def test_converged_once_the_rounds_are_used_up(self):
        field = obstacle_free_field(500.0)
        scheme = VorScheme(rounds=2)
        world = deploy(scheme, random_layout(20, field, seed=9), 60.0, 60.0)
        play(scheme, world, 2)
        assert scheme.has_converged(world)
        scheme.on_world_changed(world, WorldChange(kind="join"))
        assert scheme.has_converged(world)

    def test_zero_rounds_is_the_explosion_alone(self):
        field = obstacle_free_field(500.0)
        layout = random_layout(12, field, seed=10)
        world = make_world(layout, 100.0, 60.0, 20.0)
        result = SimulationEngine(world, VorScheme(rounds=0)).run()
        exploded = explode(layout, field, random.Random(1))
        assert world.positions() == exploded.positions
        assert result.converged_at == result.periods_executed == 1


class TestLocalCellEffect:
    def test_small_rc_changes_behaviour(self):
        """With a tiny rc the local Voronoi cells are wrong and coverage is
        lower than with full information (the Fig 10 effect)."""
        field = obstacle_free_field(500.0)
        layout = random_layout(30, field, seed=9)
        blind, informed = VorScheme(rounds=6), InformedVorScheme(rounds=6)
        blind_world = deploy(blind, layout, 30.0, 60.0)
        informed_world = deploy(informed, layout, 30.0, 60.0)
        play(blind, blind_world, 6)
        play(informed, informed_world, 6)
        assert blind_world.positions() != informed_world.positions()
        assert informed_world.coverage() >= blind_world.coverage() - 0.05
