"""The connectivity stage CPVF and FLOOR share (``repro.core.connect``).

rc = 60 and rs = 40, so both schemes attach at 60 m: CPVF at rc, FLOOR
at min(rc, 2 * rs).
"""

import pytest

from repro.core import CPVFScheme, FloorScheme, LazyMovementController
from repro.core.connect import attach_reachable, walkers
from repro.field import obstacle_free_field
from repro.geometry import Vec2
from repro.network import BASE_STATION_ID, LINK_EPS
from repro.sensors import SensorState
from repro.sim import SimulationConfig, World

RC = 60.0


def make_world(positions):
    config = SimulationConfig(
        sensor_count=len(positions),
        communication_range=RC,
        sensing_range=40.0,
        duration=100.0,
        coverage_resolution=15.0,
    )
    return World.create(config, obstacle_free_field(300.0), initial_positions=positions)


@pytest.mark.parametrize("scheme_cls", [CPVFScheme, FloorScheme])
def test_tree_neighbour_just_past_attach_distance_is_accepted(scheme_cls):
    # 0 joins the tree in the bootstrap flood; 1 starts far away and 2
    # stays out of reach all period, so FLOOR remains in phase 1.
    world = make_world([Vec2(30.0, 0.0), Vec2(200.0, 200.0), Vec2(280.0, 280.0)])
    scheme = scheme_cls()
    scheme.initialize(world)
    assert world.tree.members() == [0]
    # Inside the radio's LINK_EPS slack, outside the bare attach distance.
    world.sensor(1).motion.relocate(
        Vec2(30.0 + RC + LINK_EPS / 2, 0.0), "test"
    )
    scheme.step(world)
    assert world.tree.parent_of(1) == 0
    assert world.sensor(1).is_connected()


def test_connected_sensor_outside_the_tree_is_skipped():
    # 1 is connected by state but has left the tree (a relocating FLOOR
    # sensor); 2 is in range of 1 only, so nothing may attach.
    world = make_world([Vec2(30.0, 0.0), Vec2(90.0, 0.0), Vec2(100.0, 0.0)])
    world.attach_to_tree(0, BASE_STATION_ID)
    world.sensor(1).state = SensorState.RELOCATING
    lazy = LazyMovementController(world.routing)
    table = world.neighbor_table()
    assert attach_reachable(world, walkers(world), table, RC, lazy) == []
    assert 2 not in world.tree
    assert not world.sensor(2).is_connected()


def test_attach_order_and_chained_attachments():
    # 2 attaches to 0 in the first sweep; 1 is only in range of 2, so it
    # attaches under 2 in the second sweep of the same call.
    world = make_world([Vec2(30.0, 0.0), Vec2(140.0, 0.0), Vec2(85.0, 0.0)])
    world.attach_to_tree(0, BASE_STATION_ID)
    lazy = LazyMovementController(world.routing)
    table = world.neighbor_table()
    assert attach_reachable(world, walkers(world), table, RC, lazy) == [2, 1]
    assert world.tree.parent_of(2) == 0
    assert world.tree.parent_of(1) == 2


def test_base_station_competes_by_distance():
    # Within attach distance of both the base station and a closer tree
    # node: the nearer one (the tree node) becomes the parent.
    world = make_world([Vec2(10.0, 0.0), Vec2(50.0, 0.0)])
    world.attach_to_tree(0, BASE_STATION_ID)
    lazy = LazyMovementController(world.routing)
    table = world.neighbor_table()
    assert attach_reachable(world, walkers(world), table, RC, lazy) == [1]
    assert world.tree.parent_of(1) == 0
