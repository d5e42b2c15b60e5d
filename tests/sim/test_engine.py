"""Tests for the period-synchronous simulation engine."""

import pytest

from repro.field import obstacle_free_field
from repro.geometry import Vec2
from repro.sim import DeploymentScheme, SimulationConfig, SimulationEngine, World


class RecordingScheme(DeploymentScheme):
    """Moves every sensor 1 m to the right each period; converges after N steps."""

    name = "recording"

    def __init__(self, converge_after=None):
        self.initialized = False
        self.steps = 0
        self.converge_after = converge_after

    def initialize(self, world: World) -> None:
        self.initialized = True

    def step(self, world: World) -> None:
        self.steps += 1
        for sensor in world.sensors:
            sensor.motion.move_to(sensor.position + Vec2(1.0, 0.0))

    def has_converged(self, world: World) -> bool:
        return self.converge_after is not None and self.steps >= self.converge_after


def make_world(duration=20.0):
    config = SimulationConfig(
        sensor_count=5, duration=duration, coverage_resolution=25.0, seed=1
    )
    return World.create(config, obstacle_free_field(300.0))


class TestEngine:
    def test_runs_all_periods(self):
        scheme = RecordingScheme()
        result = SimulationEngine(make_world(duration=20.0), scheme).run()
        assert scheme.initialized
        assert scheme.steps == 20
        assert result.periods_executed == 20
        assert result.converged_at is None

    def test_stops_on_convergence(self):
        scheme = RecordingScheme(converge_after=7)
        result = SimulationEngine(make_world(duration=50.0), scheme).run()
        assert result.converged_at == 7
        assert result.periods_executed == 7

    def test_trace_records_are_collected(self):
        scheme = RecordingScheme()
        result = SimulationEngine(make_world(duration=20.0), scheme, trace_every=5).run()
        assert len(result.trace) >= 4
        times = [record.time for record in result.trace]
        assert times == sorted(times)

    def test_moving_distance_accumulates(self):
        scheme = RecordingScheme()
        result = SimulationEngine(make_world(duration=10.0), scheme).run()
        assert result.average_moving_distance == pytest.approx(10.0)
        assert result.total_moving_distance == pytest.approx(50.0)

    def test_world_reference_retained(self):
        scheme = RecordingScheme()
        world = make_world(duration=5.0)
        result = SimulationEngine(world, scheme).run()
        assert result.world is world
