"""Spec/record construction, grid expansion and JSON round-trips."""

import json

import pytest

from repro.api import (
    RunRecord,
    RunSpec,
    ScenarioSpec,
    SweepSpec,
    TracePoint,
    derive_seed,
)


def small_scenario(**overrides):
    defaults = dict(
        field_size=300.0,
        sensor_count=24,
        duration=80.0,
        coverage_resolution=15.0,
        seed=2,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestScenarioSpec:
    def test_params_accept_dicts_and_freeze(self):
        spec = small_scenario(
            layout="random-obstacles", layout_params={"seed": 9, "min_side": 20.0}
        )
        assert spec.layout_params == (("min_side", 20.0), ("seed", 9))
        # Frozen and hashable: usable as a dict key.
        assert {spec: 1}[spec] == 1

    def test_json_round_trip(self):
        spec = small_scenario(
            layout="two-obstacle",
            placement="uniform",
            invitation_ttl=7,
            oscillation_delta=4.0,
        )
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_replace(self):
        spec = small_scenario()
        assert spec.replace(seed=5).seed == 5
        assert spec.seed == 2


class TestRunSpecAndRecord:
    def test_run_spec_round_trip(self):
        spec = RunSpec(
            scenario=small_scenario(),
            scheme="VOR",
            scheme_params={"rounds": 3, "check_voronoi": True},
            trace_every=10,
            keep_positions=True,
            tags={"ratio": 1.5, "label": "x"},
        )
        restored = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.tag("ratio") == 1.5

    def test_run_record_json_round_trip(self):
        record = RunRecord(
            spec=RunSpec(scenario=small_scenario(), scheme="CPVF", trace_every=5),
            scheme="CPVF",
            coverage=0.42,
            average_moving_distance=12.5,
            total_moving_distance=300.0,
            total_messages=123,
            connected=True,
            periods_executed=80,
            converged_at=None,
            extras={"obstacle_count": 2},
            trace=(
                TracePoint(5.0, 0.3, 4.0, 50, 20),
                TracePoint(10.0, 0.42, 8.0, 100, 24),
            ),
            final_positions=((1.0, 2.0), (3.0, 4.5)),
        )
        payload = json.dumps(record.to_dict())
        restored = RunRecord.from_dict(json.loads(payload))
        assert restored == record
        assert restored.extra("obstacle_count") == 2
        assert restored.trace[1].coverage == pytest.approx(0.42)
        assert restored.final_positions == ((1.0, 2.0), (3.0, 4.5))

    def test_messages_per_node(self):
        record = RunRecord(
            spec=RunSpec(scenario=small_scenario(sensor_count=10)),
            scheme="CPVF",
            coverage=0.1,
            average_moving_distance=0.0,
            total_moving_distance=0.0,
            total_messages=50,
            connected=False,
        )
        assert record.messages_per_node() == pytest.approx(5.0)


class TestSweepGrid:
    def test_grid_expands_cartesian_axes(self):
        sweep = SweepSpec.grid(
            "grid",
            small_scenario(),
            schemes=("CPVF", "FLOOR"),
            axes={
                "communication_range": [30.0, 60.0],
                "sensor_count": [12, 24, 36],
            },
        )
        assert len(sweep) == 2 * 2 * 3
        # Every run is tagged with its axis values.
        first = sweep.runs[0]
        assert first.tag("communication_range") == 30.0
        assert first.tag("sensor_count") == 12
        assert first.scenario.communication_range == 30.0

    def test_grid_seed_axis_combines_with_repetitions(self):
        # A seed axis must yield distinct repetition seeds per axis value
        # (the spawn derives from the post-override scenario seed).
        sweep = SweepSpec.grid(
            "seeded", small_scenario(), axes={"seed": [1, 2, 3]}, repetitions=2
        )
        seeds = [run.scenario.seed for run in sweep.runs]
        assert len(seeds) == 6
        assert len(set(seeds)) == 6

    def test_grid_repetitions_spawn_deterministic_seeds(self):
        sweep_a = SweepSpec.grid("reps", small_scenario(), repetitions=3)
        sweep_b = SweepSpec.grid("reps", small_scenario(), repetitions=3)
        assert sweep_a == sweep_b
        seeds = [run.scenario.seed for run in sweep_a.runs]
        assert len(set(seeds)) == 3
        assert [run.tag("rep") for run in sweep_a.runs] == [0, 1, 2]

    def test_sweep_json_round_trip(self):
        sweep = SweepSpec.grid(
            "rt", small_scenario(), schemes=("CPVF",), repetitions=2
        )
        restored = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert restored == sweep


class TestSeedDerivation:
    def test_derive_seed_is_pure_and_distinct(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)
        assert derive_seed(1, 0, "obstacles") != derive_seed(1, 0)

    def test_derive_uniform_reads_the_derive_seed_digest(self):
        from repro.determinism import derive_uniform

        for keys in [(0,), (3, "exchange", "cpvf.lock", 17), ("walk", 2)]:
            u = derive_uniform(5, *keys)
            assert 0.0 <= u < 1.0
            # The seed is the digest's top 31 bits, the float its top 53.
            assert int(u * 2**31) == derive_seed(5, *keys)
        assert derive_uniform(5, 0) != derive_uniform(5, 1)

    @pytest.mark.parametrize("trial", range(20))
    def test_prefix_draw_equals_derive_uniform(self, trial):
        """``UniformPrefix(seed, period, kind).draw(*key)`` is
        ``derive_uniform(seed, period, kind, *key)`` for one to three key
        parts, negative ids and strings included."""
        import random

        from repro.determinism import UniformPrefix, derive_uniform

        rng = random.Random(trial)
        words = ("cpvf.lock", "flood", "floor.accept", "tree.repair", "é-ü", "")
        for _ in range(25):
            seed = rng.choice([0, 1, -7, rng.randrange(-2**40, 2**40)])
            period = rng.randrange(-3, 10_000)
            kind = rng.choice(("exchange", "walk", "x y"))
            prefix = UniformPrefix(seed, period, kind)
            for _ in range(8):
                key = tuple(
                    rng.choice(words)
                    if rng.random() < 0.3
                    else rng.randrange(-5, 500)
                    for _ in range(rng.randint(1, 3))
                )
                assert prefix.draw(*key) == derive_uniform(
                    seed, period, kind, *key
                ), (seed, period, kind, key)
            assert prefix.draw() == derive_uniform(seed, period, kind)

    def test_child_seeds_are_distinct_and_in_range(self):
        seeds = [derive_seed(7, index) for index in range(100)]
        assert len(seeds) == 100
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2**31 for s in seeds)


class TestVDRecord:
    """VOR/Minimax records, built in one place with or without a timeline."""

    def run(self, scheme, events=()):
        from repro.api import execute_run
        from repro.experiments import SMOKE_SCALE, make_scenario

        scenario = make_scenario(SMOKE_SCALE, seed=4, events=events)
        spec = RunSpec(
            scenario=scenario,
            scheme=scheme,
            keep_positions=True,
            scheme_params={"rounds": 4},
        )
        return scenario, execute_run(spec)

    @pytest.mark.parametrize("scheme", ["VOR", "Minimax"])
    def test_static_record_averages_over_the_population(self, scheme):
        scenario, record = self.run(scheme)
        n = scenario.sensor_count
        assert len(record.final_positions) == n
        assert record.average_moving_distance == pytest.approx(
            record.total_moving_distance / n
        )
        assert record.events == () and record.total_messages == 0
        # Four rounds, one every max_periods // 4 periods, the last at
        # period 3 * stride; the run stops after the round that converged.
        stride = scenario.build_config().max_periods // 4
        assert 1 <= record.periods_executed <= 3 * stride + 1
        assert record.converged_at == record.periods_executed

    @pytest.mark.parametrize("scheme", ["VOR", "Minimax"])
    def test_timeline_record_averages_over_every_sensor_ever(self, scheme):
        from repro.sim import sensor_failure, sensor_join

        events = (sensor_join(10, count=5), sensor_failure(30, count=3))
        scenario, record = self.run(scheme, events)
        n = scenario.sensor_count
        assert len(record.final_positions) == n + 5 - 3
        assert record.average_moving_distance == pytest.approx(
            record.total_moving_distance / (n + 5)
        )
        assert [e.kind for e in record.events] == ["join", "failure"]
