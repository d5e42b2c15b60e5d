"""The neighbour cache's epoch: the world's position clock.

Every sensor of a world shares one ``PositionClock``, which each
position write of a ``MotionModel`` bumps; ``NeighborCache`` keys its
epoch on the clock, the communication range and the population version.
A write of the same position still starts a new epoch, joins and
failures do too, a stale network model keeps serving the snapshot it
captured, and two worlds in one process keep their own clocks (while a
world built over another's sensors shares theirs).
"""

from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.geometry import Vec2
from repro.network import NetworkModel
from tests.oracles import uncached


def _world(n=30, seed=4):
    return make_scenario(SMOKE_SCALE, sensor_count=n, seed=seed).build_world()


def test_sensors_share_the_world_clock():
    world = _world()
    clock = world.position_clock
    assert all(s.motion.clock is clock for s in world.sensors)
    joined = world.add_sensor(Vec2(50.0, 50.0))
    assert joined.motion.clock is clock
    before = clock.writes
    joined.motion.relocate(Vec2(60.0, 50.0), "test")
    assert clock.writes == before + 1


def test_a_write_of_the_same_position_starts_a_new_epoch():
    world = _world()
    first = world.neighbor_snapshot()
    assert world.neighbor_snapshot() is first
    sensor = world.sensors[3]
    sensor.motion.relocate(sensor.position, "test")
    second = world.neighbor_snapshot()
    assert second is not first
    assert second.table() == first.table()


def test_reads_without_writes_keep_the_snapshot():
    world = _world()
    first = world.neighbor_snapshot()
    world.sensors[0].motion.stop()
    world.neighbor_table()
    world.connected_component_of()
    assert world.neighbor_snapshot() is first


def test_joins_and_failures_start_new_epochs():
    world = _world()
    first = world.neighbor_snapshot()
    world.remove_sensor(2)
    after_failure = world.neighbor_snapshot()
    assert after_failure is not first
    assert 2 not in after_failure.ids
    joined = world.add_sensor(Vec2(80.0, 80.0))
    after_join = world.neighbor_snapshot()
    assert after_join is not after_failure
    assert joined.sensor_id in after_join.ids
    assert world.neighbor_table() == uncached(world).neighbor_table()


def test_a_stale_network_keeps_serving_its_captured_snapshot():
    world = _world()
    world.network = NetworkModel(seed=1, staleness=5)
    captured = world.protocol_neighbors()
    table = captured.table()
    mover = world.sensors[0]
    mover.motion.relocate(
        Vec2(mover.position.x + 40.0, mover.position.y + 40.0), "test"
    )
    assert world.protocol_neighbors() is captured
    assert world.protocol_neighbors().table() == table
    assert world.neighbor_snapshot() is not captured
    assert world.stats.net_counts["stale_reads"] == 2


def test_two_worlds_keep_their_own_clocks():
    a, b = _world(seed=4), _world(seed=5)
    assert a.position_clock is not b.position_clock
    snapshot_b = b.neighbor_snapshot()
    for sensor in a.sensors:
        sensor.motion.relocate(
            Vec2(sensor.position.x + 1.0, sensor.position.y), "test"
        )
    assert b.neighbor_snapshot() is snapshot_b
    assert a.neighbor_table() == uncached(a).neighbor_table()
    assert b.neighbor_table() == uncached(b).neighbor_table()


def test_a_world_over_the_same_sensors_shares_their_clock():
    world = _world()
    oracle = uncached(world)
    assert oracle.position_clock is world.position_clock
    first = world.neighbor_snapshot()
    world.sensors[1].motion.relocate(Vec2(5.0, 5.0), "test")
    assert world.neighbor_snapshot() is not first
    assert world.neighbor_table() == oracle.neighbor_table()
