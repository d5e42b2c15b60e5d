"""Tests for the fault-injection lifecycle subsystem."""

import random

import pytest

from repro.field import Field, Obstacle
from repro.geometry import Vec2
from repro.metrics.recovery import BURST_WINDOW
from repro.network import BASE_STATION_ID, MessageType
from repro.sensors import SensorState
from repro.sim import (
    EVENT_KINDS,
    FaultInjector,
    LifecycleEvent,
    SimulationConfig,
    World,
    normalize_events,
    obstacle_appear,
    obstacle_clear,
    sensor_failure,
    sensor_join,
)

FIELD_SIZE = 200.0


def make_world(n=12, seed=5, rc=60.0, field=None):
    rng = random.Random(seed)
    if field is None:
        field = Field(FIELD_SIZE, FIELD_SIZE)
    config = SimulationConfig(
        sensor_count=n,
        communication_range=rc,
        sensing_range=30.0,
        duration=40.0,
        coverage_resolution=20.0,
        seed=seed,
    )
    positions = []
    while len(positions) < n:
        p = Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        if field.is_free(p):
            positions.append(p)
    return World.create(config, field, initial_positions=positions)


def attach_chain(world, ids):
    """Attach ``ids`` as a chain hanging off the base station."""
    parent = BASE_STATION_ID
    for sid in ids:
        world.attach_to_tree(sid, parent)
        parent = sid


class TestEventConstruction:
    def test_kinds_are_closed(self):
        assert set(EVENT_KINDS) == {
            "failure",
            "join",
            "obstacle",
            "clear-obstacle",
        }
        with pytest.raises(ValueError):
            LifecycleEvent(at_period=1, kind="meteor")

    def test_failure_requires_exactly_one_of_count_fraction(self):
        with pytest.raises(ValueError):
            sensor_failure(at_period=1)
        with pytest.raises(ValueError):
            sensor_failure(at_period=1, count=2, fraction=0.5)
        with pytest.raises(ValueError):
            sensor_failure(at_period=1, count=2, selection="loudest")

    def test_join_staging_point_validation(self):
        with pytest.raises(ValueError):
            sensor_join(at_period=1, count=2, x=10.0)
        with pytest.raises(ValueError):
            sensor_join(at_period=1, count=2, radius=5.0)

    def test_obstacle_rectangle_must_not_degenerate(self):
        with pytest.raises(ValueError):
            obstacle_appear(at_period=1, xmin=10, ymin=10, xmax=10, ymax=20)

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError):
            sensor_failure(at_period=-1, count=1)

    def test_serialization_round_trip(self):
        events = (
            sensor_failure(at_period=3, fraction=0.25, selection="interior"),
            sensor_join(at_period=7, count=4, x=1.0, y=2.0, radius=30.0),
            obstacle_appear(at_period=9, xmin=0, ymin=0, xmax=5, ymax=5),
            obstacle_clear(at_period=11, index=0),
        )
        for event in events:
            assert LifecycleEvent.from_dict(event.to_dict()) == event

    def test_normalize_events_accepts_dicts_and_sorts_nothing(self):
        raw = [
            sensor_failure(at_period=5, count=1).to_dict(),
            sensor_join(at_period=2, count=1),
        ]
        events = normalize_events(raw)
        assert all(isinstance(e, LifecycleEvent) for e in events)
        # Declaration order is preserved; firing order is the injector's job.
        assert [e.at_period for e in events] == [5, 2]


class TestWorldChurn:
    def test_remove_sensor_keeps_slot_and_ids(self):
        world = make_world()
        n = len(world.sensors)
        world.remove_sensor(4)
        assert len(world.sensors) == n
        assert world.sensor(4).state is SensorState.FAILED
        assert not world.sensor(4).is_alive()
        assert [s.sensor_id for s in world.sensors] == list(range(n))
        assert len(world.alive_sensors()) == n - 1
        assert world.alive_count() == n - 1

    def test_remove_sensor_is_idempotent(self):
        world = make_world()
        world.remove_sensor(2)
        version = world.population_version
        assert world.remove_sensor(2) == []
        assert world.population_version == version

    def test_alive_sensors_identity_when_population_intact(self):
        world = make_world()
        assert world.alive_sensors() is world.sensors

    def test_add_sensor_appends_with_next_id(self):
        world = make_world()
        n = len(world.sensors)
        sensor = world.add_sensor(Vec2(50.0, 50.0))
        assert sensor.sensor_id == n
        assert world.sensor(n) is sensor
        assert sensor.state is SensorState.DISCONNECTED

    def test_population_version_bumps(self):
        world = make_world()
        v0 = world.population_version
        world.remove_sensor(0)
        v1 = world.population_version
        world.add_sensor(Vec2(10.0, 10.0))
        v2 = world.population_version
        assert v0 < v1 < v2

    def test_dead_sensors_leave_neighbor_structures(self):
        world = make_world(n=8, rc=500.0)
        assert 3 in world.neighbor_table()[5]
        world.remove_sensor(3)
        table = world.neighbor_table()
        assert 3 not in table
        assert all(3 not in row for row in table.values())

    def test_coverage_ignores_dead_sensors(self):
        world = make_world(n=6)
        full = world.coverage()
        for sid in range(5):
            world.remove_sensor(sid)
        assert world.coverage() < full


class TestTreeRepairInWorld:
    def test_leaf_death_prunes_cleanly(self):
        world = make_world(n=6, rc=500.0)
        attach_chain(world, [0, 1, 2])
        disconnected = world.remove_sensor(2)
        assert disconnected == []
        world.tree.validate()
        assert 2 not in world.tree
        assert world.tree.children_of(1) == set()

    def test_interior_death_reattaches_subtree(self):
        # Everyone is in range of everyone (rc=500), so the orphaned chain
        # tail must be re-attached, not dropped.
        world = make_world(n=6, rc=500.0)
        attach_chain(world, [0, 1, 2, 3])
        disconnected = world.remove_sensor(1)
        assert disconnected == []
        world.tree.validate()
        for sid in (0, 2, 3):
            assert sid in world.tree
            assert world.sensor(sid).is_connected()

    def test_unreachable_subtree_goes_disconnected(self):
        # rc so small nothing is in range of anything: killing the chain's
        # root strands its descendants (the chain itself was attached
        # artificially, which the repair cannot re-create).
        world = make_world(n=6, rc=1.0)
        attach_chain(world, [0, 1, 2])
        disconnected = world.remove_sensor(0)
        assert set(disconnected) == {1, 2}
        world.tree.validate()
        for sid in (1, 2):
            assert sid not in world.tree
            assert world.sensor(sid).state is SensorState.DISCONNECTED
            assert world.tree.parent_of(sid) is None

    def test_repair_records_messages(self):
        world = make_world(n=6, rc=500.0)
        attach_chain(world, [0, 1, 2, 3])
        before = world.stats.total()
        world.remove_sensor(1)
        assert world.stats.total() > before


class TestFieldEvents:
    def test_obstacle_appear_and_clear_round_trip(self):
        field = Field(FIELD_SIZE, FIELD_SIZE)
        v0 = field.version
        index = field.add_obstacle(Obstacle.rectangle(10, 10, 60, 60))
        assert index == 0
        assert not field.is_free(Vec2(30, 30))
        assert field.version > v0
        removed = field.remove_obstacle(0)
        assert field.is_free(Vec2(30, 30))
        assert removed.contains(Vec2(30, 30))

    def test_injector_displaces_swallowed_sensors(self):
        field = Field(FIELD_SIZE, FIELD_SIZE)
        world = make_world(n=8, field=field)
        event = obstacle_appear(at_period=0, xmin=0, ymin=0, xmax=150, ymax=150)
        scheme = _RecordingScheme()
        injector = FaultInjector(world, scheme, [event])
        before = [s.position for s in world.sensors]
        injector.fire(0)
        for sensor in world.alive_sensors():
            assert field.is_free(sensor.position)
        moved = tuple(
            s.sensor_id for s in world.sensors if s.position != before[s.sensor_id]
        )
        (change,) = scheme.changes
        assert moved and change.displaced_ids == moved

    def test_clear_obstacle_index_out_of_range_raises(self):
        world = make_world()
        injector = FaultInjector(
            world, _RecordingScheme(), [obstacle_clear(at_period=0, index=3)]
        )
        with pytest.raises(ValueError):
            injector.fire(0)


class _RecordingScheme:
    """Minimal scheme double capturing on_world_changed calls."""

    name = "recorder"

    def __init__(self):
        self.changes = []

    def initialize(self, world):
        pass

    def step(self, world):
        pass

    def on_world_changed(self, world, change):
        self.changes.append(change)


class _TalkingScheme(_RecordingScheme):
    """Scheme double transmitting a scripted number of messages per period."""

    def __init__(self, sends):
        super().__init__()
        self.sends = sends

    def step(self, world):
        world.stats.record_transmissions(
            MessageType.TREE_REPAIR, self.sends[world.period_index]
        )


class TestFaultInjector:
    def test_fires_at_declared_periods_only(self):
        world = make_world()
        scheme = _RecordingScheme()
        events = [
            sensor_failure(at_period=2, count=1),
            sensor_failure(at_period=5, count=1),
        ]
        injector = FaultInjector(world, scheme, events)
        fired = [injector.fire(p) for p in range(7)]
        assert fired == [0, 0, 1, 0, 0, 1, 0]
        assert len(scheme.changes) == 2
        assert all(change.kind == "failure" for change in scheme.changes)

    def test_has_pending_reflects_last_event(self):
        world = make_world()
        injector = FaultInjector(
            world, _RecordingScheme(), [sensor_failure(at_period=4, count=1)]
        )
        assert injector.has_pending(0)
        assert injector.has_pending(3)
        assert not injector.has_pending(4)

    def test_victim_selection_is_seed_deterministic(self):
        events = [sensor_failure(at_period=0, fraction=0.3)]
        victims = []
        for _ in range(2):
            world = make_world(seed=11)
            scheme = _RecordingScheme()
            FaultInjector(world, scheme, events).fire(0)
            victims.append(scheme.changes[0].failed_ids)
        assert victims[0] == victims[1]
        assert len(victims[0]) == round(0.3 * 12)

    def test_different_seeds_usually_differ(self):
        events = [sensor_failure(at_period=0, fraction=0.5)]
        draws = set()
        for seed in range(6):
            world = make_world(seed=seed)
            scheme = _RecordingScheme()
            FaultInjector(world, scheme, events).fire(0)
            draws.add(scheme.changes[0].failed_ids)
        assert len(draws) > 1

    def test_join_event_adds_alive_free_space_sensors(self):
        world = make_world(n=6)
        scheme = _RecordingScheme()
        injector = FaultInjector(
            world,
            scheme,
            [sensor_join(at_period=0, count=3, x=50.0, y=50.0, radius=40.0)],
        )
        injector.fire(0)
        assert len(world.sensors) == 9
        assert scheme.changes[0].added_ids == (6, 7, 8)
        for sid in (6, 7, 8):
            sensor = world.sensor(sid)
            assert sensor.is_alive()
            assert world.field.is_free(sensor.position)
            assert sensor.position.distance_to(Vec2(50.0, 50.0)) <= 40.0 + 1e-9

    def test_outcomes_one_per_event_in_period_order(self):
        world = make_world(n=10, rc=500.0)
        attach_chain(world, list(range(10)))
        scheme = _RecordingScheme()
        events = [
            sensor_failure(at_period=4, count=2),
            sensor_failure(at_period=1, count=1),
        ]
        injector = FaultInjector(world, scheme, events)
        for period in range(8):
            injector.fire(period)
            injector.observe(period)
        outcomes = injector.outcomes()
        assert [o.at_period for o in outcomes] == [1, 4]
        assert all(o.kind == "failure" for o in outcomes)
        assert all(0.0 <= o.pre_coverage <= 1.0 for o in outcomes)

    @pytest.mark.parametrize("at_period", [3, BURST_WINDOW + 5])
    def test_message_burst_is_window_sum_against_baseline(self, at_period):
        # The baseline is the transmissions of the BURST_WINDOW periods
        # before the event (fewer while the run is younger than that);
        # the burst is what the event's own window sent beyond it.
        rng = random.Random(at_period)
        horizon = at_period + BURST_WINDOW + 1
        sends = [rng.choice((0, 3, 11)) for _ in range(horizon)]
        world = make_world()
        scheme = _TalkingScheme(sends)
        event = sensor_join(at_period=at_period, count=1, x=50.0, y=50.0)
        injector = FaultInjector(world, scheme, [event])
        for period in range(horizon):
            world.period_index = period
            injector.fire(period)
            scheme.step(world)
            injector.observe(period)
        (outcome,) = injector.outcomes()
        baseline = sum(sends[max(0, at_period - BURST_WINDOW) : at_period])
        window = sum(sends[at_period : at_period + BURST_WINDOW + 1])
        assert outcome.message_burst == window - baseline
