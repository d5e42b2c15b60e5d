"""``world.tree`` is the one record of the connectivity tree.

Sensors carry no copy of their parent, children or ancestors; every
reader asks ``world.tree``.  Pinned here: the mirror attributes are gone,
tree membership agrees with sensor states after every period of CPVF and
FLOOR runs (a ``RELOCATING`` sensor is connected but no member), and node
failures leave a valid tree of live sensors whose dropped members are
DISCONNECTED outsiders.
"""

import random

import pytest

from repro.core import CPVFScheme, FloorScheme
from repro.core.lazy import LazyMovementController
from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.network import BASE_STATION_ID
from repro.sensors import SensorState
from repro.sim import World

#: States whose sensors are tree members; ``RELOCATING`` is connected too
#: but detached from the tree while in transit.
MEMBER_STATES = {SensorState.CONNECTED, SensorState.FIXED, SensorState.MOVABLE}

SCHEMES = {"CPVF": CPVFScheme, "FLOOR": FloorScheme}


def assert_tree_matches_states(world):
    tree = world.tree
    tree.validate()
    for sensor in world.sensors:
        member = sensor.sensor_id in tree.parent
        assert member == (sensor.state in MEMBER_STATES), (
            sensor.sensor_id,
            sensor.state,
        )
    for children in tree.children.values():
        for child in children:
            assert world.sensor(child).is_alive()


class TestNoSensorMirror:
    @pytest.mark.parametrize(
        "name", ["parent_id", "children", "ancestors", "set_parent", "path_parent_id"]
    )
    def test_sensor_has_no_tree_attribute(self, name):
        world = make_scenario(SMOKE_SCALE, seed=1).build_world()
        world.attach_to_tree(0, BASE_STATION_ID)
        assert not hasattr(world.sensor(0), name)

    def test_world_has_no_reparent_wrapper(self):
        assert not hasattr(World, "reparent_in_tree")


class TestTreeFollowsStates:
    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_membership_matches_states_every_period(
        self, scheme_name, seed, with_obstacles
    ):
        world = make_scenario(
            SMOKE_SCALE,
            seed=seed,
            layout="two-obstacle" if with_obstacles else "obstacle-free",
        ).build_world()
        scheme = SCHEMES[scheme_name]()
        scheme.initialize(world)
        assert_tree_matches_states(world)
        for period in range(30):
            world.period_index = period
            scheme.step(world)
            assert_tree_matches_states(world)
        assert world.tree.members(), "nothing connected in this draw"


class TestTreeAfterFailures:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_failures_leave_a_valid_tree_of_live_sensors(self, scheme_name, seed):
        world = make_scenario(SMOKE_SCALE, seed=seed).build_world()
        scheme = SCHEMES[scheme_name]()
        scheme.initialize(world)
        for period in range(20):
            world.period_index = period
            scheme.step(world)
        rng = random.Random(seed)
        victims = rng.sample(world.tree.members(), 4)
        rc = world.config.communication_range
        for victim in victims:
            if not world.sensor(victim).is_alive():
                continue
            before = dict(world.tree.parent)
            orphaned = world.tree.subtree_of(victim) - {victim}
            group = {
                member: root
                for root in world.tree.children_of(victim)
                for member in world.tree.subtree_of(root)
            }
            dropped = world.remove_sensor(victim)
            assert world.sensor(victim).state is SensorState.FAILED
            assert victim not in world.tree
            assert all(victim not in c for c in world.tree.children.values())
            assert set(dropped) <= orphaned
            for sid in dropped:
                assert sid not in world.tree
                assert world.sensor(sid).state is SensorState.DISCONNECTED
            assert set(world.tree.members()) == set(before) - {victim} - set(dropped)
            assert_tree_matches_states(world)
            for sid in world.tree.members():
                parent = world.tree.parent_of(sid)
                if parent == before[sid]:
                    continue
                # Only re-attached orphans move: either a link of the
                # re-rooted chain, reversed, or the new root of its subtree,
                # hung on a live link outside that subtree.
                assert sid in orphaned
                if parent != BASE_STATION_ID and before.get(parent) == sid:
                    continue
                assert group.get(parent) != group[sid]
                anchor = (
                    world.base_station
                    if parent == BASE_STATION_ID
                    else world.sensor(parent).position
                )
                assert world.sensor(sid).position.distance_to(anchor) <= rc + 1e-6
        # The scheme keeps running on the repaired tree.
        for period in range(20, 30):
            world.period_index = period
            scheme.step(world)
            assert_tree_matches_states(world)


class TestWaitingLeavesTheTree:
    def test_start_and_stop_waiting_do_not_touch_the_tree(self):
        world = make_scenario(SMOKE_SCALE, seed=1).build_world()
        world.attach_to_tree(0, BASE_STATION_ID)
        version = world.tree.version
        controller = LazyMovementController(world.routing)
        sensor = world.sensor(1)
        controller.start_waiting(sensor, 0)
        assert controller.is_waiting(1)
        assert 1 not in world.tree
        controller.stop_waiting(sensor)
        assert not controller.is_waiting(1)
        assert world.tree.version == version
        assert world.tree.children_of(0) == set()
