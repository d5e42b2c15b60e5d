"""End-to-end integration tests exercising the public API as a user would."""

import pytest

import repro
from repro import (
    CPVFScheme,
    FloorScheme,
    SimulationConfig,
    SimulationEngine,
    World,
    corridor_field,
    obstacle_free_field,
    two_obstacle_field,
)
from repro.metrics import summarize_sensor_distances
from repro.viz import render_layout


def small_config(**overrides):
    defaults = dict(
        sensor_count=20,
        duration=60.0,
        communication_range=60.0,
        sensing_range=40.0,
        coverage_resolution=15.0,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestPublicAPI:
    def test_version_exposed(self):
        assert repro.__version__

    def test_quickstart_flow(self):
        config = small_config()
        world = World.create(config, obstacle_free_field(300.0))
        result = SimulationEngine(world, FloorScheme()).run()
        assert 0.0 < result.final_coverage <= 1.0
        summary = summarize_sensor_distances(world.sensors)
        assert summary.count == 20
        art = render_layout(world.field, world.positions(), config.sensing_range, width=30)
        assert art

    def test_both_schemes_run_on_every_canonical_field(self):
        for field_factory in (obstacle_free_field, two_obstacle_field, corridor_field):
            field = field_factory(300.0)
            for scheme_class in (CPVFScheme, FloorScheme):
                config = small_config(seed=7)
                world = World.create(config, field)
                result = SimulationEngine(world, scheme_class()).run()
                assert 0.0 <= result.final_coverage <= 1.0
                assert all(field.is_free(s.position) for s in world.sensors)

    def test_deterministic_given_seed(self):
        def run_once():
            config = small_config(seed=21)
            world = World.create(config, obstacle_free_field(300.0))
            result = SimulationEngine(world, FloorScheme()).run()
            return result.final_coverage, result.average_moving_distance

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        coverages = set()
        for seed in (1, 2, 3):
            config = small_config(seed=seed)
            world = World.create(config, obstacle_free_field(300.0))
            result = SimulationEngine(world, CPVFScheme()).run()
            coverages.add(round(result.final_coverage, 6))
        assert len(coverages) > 1

    def test_cpvf_preserves_connectivity_once_connected(self):
        config = small_config(seed=5, duration=80.0)
        world = World.create(config, obstacle_free_field(300.0))
        scheme = CPVFScheme()
        scheme.initialize(world)
        was_connected = False
        for period in range(world.config.max_periods):
            world.period_index = period
            scheme.step(world)
            if world.network_is_connected():
                was_connected = True
            elif was_connected:
                pytest.fail("CPVF lost connectivity after achieving it")
        assert was_connected
