"""ScenarioSpec world construction: one-pass placement, registry errors."""

import pytest

from repro.api import RunSpec, ScenarioSpec, execute_run, placement_registry
from repro.core import CPVFScheme
from repro.field import clustered_placement, uniform_placement
from repro.experiments import SMOKE_SCALE, make_scenario
from repro.scenarios import ScenarioValidator
from repro.sim import SimulationEngine, World


class TestBuildWorld:
    def test_positions_drawn_exactly_once_from_seed_stream(self):
        spec = make_scenario(SMOKE_SCALE, seed=13)
        field = spec.build_field()
        # The world's placement is the scenario's deterministic first draw.
        expected = spec.initial_positions(field)
        world = spec.build_world()
        assert [s.position for s in world.sensors] == expected
        # Building twice gives the same placement (pure function of the spec).
        again = spec.build_world()
        assert [s.position for s in again.sensors] == expected

    def test_world_create_default_is_the_clustered_strategy(self):
        # One clustered draw: the registered strategy is World.create's
        # default, so a bare World.create matches the scenario's world.
        assert placement_registry.get("clustered") is clustered_placement
        assert placement_registry.get("uniform") is uniform_placement
        spec = make_scenario(SMOKE_SCALE, seed=4)
        world_spec = spec.build_world()
        world_bare = World.create(spec.build_config(), spec.build_field())
        assert [s.position for s in world_spec.sensors] == [
            s.position for s in world_bare.sensors
        ]
        assert world_bare.rng.getstate() == world_spec.rng.getstate()

    def test_clustered_placement_stays_in_cluster_square(self):
        spec = make_scenario(SMOKE_SCALE, seed=3)
        world = spec.build_world()
        half = SMOKE_SCALE.field_size / 2.0
        for sensor in world.sensors:
            assert sensor.position.x <= half + 1e-9
            assert sensor.position.y <= half + 1e-9

    def test_uniform_placement_spreads_over_field(self):
        spec = make_scenario(SMOKE_SCALE, seed=3, placement="uniform")
        positions = spec.initial_positions()
        half = SMOKE_SCALE.field_size / 2.0
        assert any(p.x > half or p.y > half for p in positions)

    def test_build_config_mirrors_scenario(self):
        spec = make_scenario(
            SMOKE_SCALE,
            communication_range=45.0,
            sensing_range=25.0,
            seed=9,
            invitation_ttl=6,
            oscillation_delta=2.0,
            oscillation_mode="two-step",
        )
        config = spec.build_config()
        assert config.communication_range == 45.0
        assert config.sensing_range == 25.0
        assert config.seed == 9
        # The scheme settings have one home: the spec.
        for name in ("invitation_ttl", "oscillation_delta", "oscillation_mode"):
            assert not hasattr(config, name)

    def test_unknown_layout_and_placement_raise_with_available(self):
        with pytest.raises(KeyError, match=r"unknown field layout.*obstacle-free"):
            ScenarioSpec(layout="nope").build_field()
        with pytest.raises(KeyError, match=r"unknown placement.*clustered"):
            ScenarioSpec(placement="nope").initial_positions()

    def test_random_obstacle_layout_is_reproducible(self):
        spec = ScenarioSpec(
            field_size=300.0,
            layout="random-obstacles",
            layout_params={"seed": 11},
            sensor_count=8,
        )
        first = spec.build_field()
        second = spec.build_field()
        assert [o.bounding_box() for o in first.obstacles] == [
            o.bounding_box() for o in second.obstacles
        ]
        report = ScenarioValidator(resolution=20.0).validate_field(first)
        assert report.free_space_connected


def _outcome(record):
    return (
        record.coverage,
        record.total_moving_distance,
        record.total_messages,
        record.periods_executed,
        record.final_positions,
    )


class TestSchemeSettings:
    """FLOOR's TTL and CPVF's oscillation factor reach the schemes."""

    def floor(self, scenario):
        return execute_run(
            RunSpec(scenario=scenario, scheme="FLOOR", keep_positions=True)
        )

    def test_default_invitation_ttl_is_fifth_of_n(self):
        scenario = make_scenario(SMOKE_SCALE, seed=7)
        explicit = scenario.replace(
            invitation_ttl=round(0.2 * scenario.sensor_count)
        )
        assert _outcome(self.floor(scenario)) == _outcome(self.floor(explicit))

    def test_explicit_invitation_ttl(self):
        scenario = make_scenario(SMOKE_SCALE, seed=7)
        assert _outcome(self.floor(scenario)) != _outcome(
            self.floor(scenario.replace(invitation_ttl=1))
        )

    def test_oscillation_settings_reach_cpvf(self):
        scenario = make_scenario(
            SMOKE_SCALE,
            communication_range=25.0,
            seed=8,
            oscillation_delta=2.0,
            oscillation_mode="two-step",
        )
        record = execute_run(
            RunSpec(scenario=scenario, scheme="CPVF", keep_positions=True)
        )
        world = scenario.build_world()
        direct = SimulationEngine(
            world,
            CPVFScheme(oscillation_delta=2.0, oscillation_mode="two-step"),
            trace_every=None,
        ).run()
        assert _outcome(record) == (
            direct.final_coverage,
            direct.total_moving_distance,
            direct.total_messages,
            direct.periods_executed,
            tuple((s.position.x, s.position.y) for s in world.sensors),
        )
        undamped = execute_run(
            RunSpec(
                scenario=scenario.replace(oscillation_delta=None),
                scheme="CPVF",
                keep_positions=True,
            )
        )
        assert _outcome(undamped) != _outcome(record)
