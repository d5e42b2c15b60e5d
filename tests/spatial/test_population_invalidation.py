"""Cache invalidation under population churn.

The neighbor cache's epoch includes the world's population version and the
field's obstacle version, so killing, injecting or re-fielding sensors must
drop every derived structure.  Parity is checked the strong way: after a
random churn sequence, every cached query must equal the same query on a
freshly built world holding only the surviving sensors at their current
positions.
"""

import random

import pytest

from repro.field import Field, Obstacle
from repro.geometry import Vec2
from repro.sim import SimulationConfig, World
from tests.oracles import uncached

FIELD_SIZE = 250.0


def build_world(positions, seed=1, rc=60.0, cache=True):
    field = Field(FIELD_SIZE, FIELD_SIZE)
    config = SimulationConfig(
        sensor_count=len(positions),
        communication_range=rc,
        sensing_range=30.0,
        duration=10.0,
        coverage_resolution=25.0,
        seed=seed,
        clustered_start=False,
    )
    world = World.create(config, field, initial_positions=positions)
    return world if cache else uncached(world)


def random_positions(rng, n):
    return [
        Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        for _ in range(n)
    ]


def remap_table(table, id_map):
    return {
        id_map[sid]: [id_map[nb] for nb in row] for sid, row in table.items()
    }


@pytest.mark.parametrize("trial", range(10))
def test_churned_cache_matches_fresh_world(trial):
    """Kill/inject churn: cached queries == queries on a rebuilt world."""
    rng = random.Random(4000 + trial)
    world = build_world(random_positions(rng, rng.randint(10, 40)), seed=trial)

    # Warm every cached structure before churning.
    world.neighbor_table()
    world.coverage()

    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7 and world.alive_count() > 2:
            victims = rng.sample(
                [s.sensor_id for s in world.alive_sensors()],
                rng.randint(1, max(1, world.alive_count() // 4)),
            )
            for sid in victims:
                world.remove_sensor(sid)
        else:
            for _ in range(rng.randint(1, 4)):
                world.add_sensor(
                    Vec2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
                )

    # A fresh world holding only the survivors, at their current positions.
    alive = world.alive_sensors()
    reference = build_world(
        [s.position for s in alive], seed=trial, cache=False
    )
    # Survivor ids differ (the fresh world renumbers 0..k-1); remap.
    id_map = {i: s.sensor_id for i, s in enumerate(alive)}

    assert world.neighbor_table() == remap_table(
        reference.neighbor_table(), id_map
    )
    assert world.sensors_near_base_station() == [
        id_map[sid] for sid in reference.sensors_near_base_station()
    ]
    assert world.connected_component_of() == {
        id_map[sid] for sid in reference.connected_component_of()
    }
    assert world.coverage() == pytest.approx(reference.coverage(), abs=1e-12)


@pytest.mark.parametrize("trial", range(6))
def test_cached_and_uncached_worlds_agree_under_identical_churn(trial):
    """The same churn on cached and brute worlds yields identical answers."""
    rng = random.Random(5000 + trial)
    positions = random_positions(rng, rng.randint(8, 30))
    cached = build_world(positions, seed=trial, cache=True)
    brute = build_world(positions, seed=trial, cache=False)

    script = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5 and cached.alive_count() > 2:
            script.append(
                ("kill", rng.choice([s.sensor_id for s in cached.alive_sensors()]))
            )
        else:
            script.append(
                (
                    "add",
                    Vec2(
                        rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE)
                    ),
                )
            )

    for world in (cached, brute):
        world.neighbor_table()
        for action, arg in script:
            if action == "kill":
                world.remove_sensor(arg)
            else:
                world.add_sensor(arg)

    assert cached.neighbor_table() == brute.neighbor_table()
    cached_rows, cached_cols = cached.neighbor_pairs()
    brute_rows, brute_cols = brute.neighbor_pairs()
    assert list(cached_rows) == list(brute_rows)
    assert list(cached_cols) == list(brute_cols)
    assert cached.coverage() == brute.coverage()
    assert cached.network_is_connected() == brute.network_is_connected()


def test_field_change_invalidates_coverage():
    rng = random.Random(42)
    world = build_world(random_positions(rng, 20))
    before = world.coverage()
    index = world.field.add_obstacle(
        Obstacle.rectangle(20.0, 20.0, 180.0, 180.0)
    )
    world.notify_field_changed()
    after = world.coverage()
    assert after != before

    world.field.remove_obstacle(index)
    world.notify_field_changed()
    assert world.coverage() == pytest.approx(before, abs=1e-12)


def test_epoch_bumps_without_explicit_invalidation():
    """The cache notices churn through its epoch, not manual invalidation."""
    rng = random.Random(11)
    world = build_world(random_positions(rng, 15), rc=120.0)
    table_before = world.neighbor_table()
    victim = 7
    assert any(victim in row for row in table_before.values())
    world.remove_sensor(victim)
    table_after = world.neighbor_table()
    assert victim not in table_after
    assert all(victim not in row for row in table_after.values())
