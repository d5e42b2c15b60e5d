"""Tests for the invitation protocol."""

import random

import pytest

from repro.core import InvitationProtocol
from repro.core.expansion import ExpansionKind, ExpansionPoint
from repro.geometry import Vec2
from repro.mobility import MotionModel
from repro.network import BASE_STATION_ID, ConnectivityTree, MessageStats, MessageType, RoutingCostModel
from repro.sensors import Sensor, SensorState


def make_movable(sensor_id: int, x: float, y: float) -> Sensor:
    sensor = Sensor(
        sensor_id=sensor_id,
        motion=MotionModel(position=Vec2(x, y), max_speed=2.0, period=1.0),
        sensing_range=40.0,
        state=SensorState.MOVABLE,
    )
    return sensor


def make_protocol(ttl=10, seed=1):
    stats = MessageStats()
    routing = RoutingCostModel(stats)
    protocol = InvitationProtocol(routing=routing, ttl=ttl, rng=random.Random(seed))
    return protocol, stats


def make_tree(ids):
    tree = ConnectivityTree()
    for i in ids:
        tree.attach(i, BASE_STATION_ID)
    return tree


def ep(owner, x, y, kind=ExpansionKind.FLG):
    return ExpansionPoint(Vec2(x, y), kind, owner)


class TestInvitationRound:
    def test_no_expansion_points_no_cost(self):
        protocol, stats = make_protocol()
        tree = make_tree([0])
        assignments = protocol.run_round([], [make_movable(1, 0, 0)], 2, tree)
        assert assignments == []
        assert stats.total() == 0

    def test_walk_cost_charged_even_without_movable_sensors(self):
        protocol, stats = make_protocol(ttl=7)
        tree = make_tree([0])
        assignments = protocol.run_round([ep(0, 100, 40)], [], 5, tree)
        assert assignments == []
        assert stats.counts[MessageType.INVITATION] == 7

    def test_full_reach_assigns_each_ep_once(self):
        # TTL >= connected count means every movable sensor hears every EP.
        protocol, stats = make_protocol(ttl=100)
        tree = make_tree([0, 1, 2])
        eps = [ep(0, 100, 40), ep(0, 140, 40)]
        movable = [make_movable(1, 90, 40), make_movable(2, 130, 40)]
        assignments = protocol.run_round(eps, movable, 3, tree)
        assert len(assignments) == 2
        assigned_sensors = {a.movable_id for a in assignments}
        assert assigned_sensors == {1, 2}
        targets = {(round(a.expansion_point.position.x)) for a in assignments}
        assert targets == {100, 140}

    def test_each_movable_assigned_at_most_once(self):
        protocol, _ = make_protocol(ttl=100)
        tree = make_tree([0, 1])
        eps = [ep(0, 100, 40), ep(0, 140, 40), ep(0, 180, 40)]
        movable = [make_movable(1, 90, 40)]
        assignments = protocol.run_round(eps, movable, 2, tree)
        assert len(assignments) == 1

    def test_higher_priority_kind_wins(self):
        protocol, _ = make_protocol(ttl=100)
        tree = make_tree([0, 1])
        flg = ep(0, 500, 40, ExpansionKind.FLG)
        iflg = ep(0, 95, 40, ExpansionKind.IFLG)  # nearer, but lower priority
        movable = [make_movable(1, 90, 40)]
        assignments = protocol.run_round([iflg, flg], movable, 2, tree)
        assert len(assignments) == 1
        assert assignments[0].expansion_point.kind is ExpansionKind.FLG

    def test_distance_breaks_priority_ties(self):
        protocol, _ = make_protocol(ttl=100)
        tree = make_tree([0, 1])
        near = ep(0, 100, 40)
        far = ep(0, 900, 40)
        movable = [make_movable(1, 90, 40)]
        assignments = protocol.run_round([far, near], movable, 2, tree)
        assert assignments[0].expansion_point.position.x == pytest.approx(100)

    def test_message_accounting_includes_accept_and_ack(self):
        protocol, stats = make_protocol(ttl=100)
        tree = make_tree([0, 1])
        assignments = protocol.run_round(
            [ep(0, 100, 40)], [make_movable(1, 90, 40)], 2, tree
        )
        assert len(assignments) == 1
        assert stats.counts[MessageType.ACCEPT_INVITATION] > 0
        assert stats.counts[MessageType.ACKNOWLEDGE] > 0
        assert stats.counts[MessageType.LOCATION_UPDATE] > 0

    def test_zero_reach_probability_yields_no_assignments(self):
        protocol, stats = make_protocol(ttl=1, seed=3)
        tree = make_tree([0, 1])
        # With 10^6 connected sensors the reach probability is ~0.
        assignments = protocol.run_round(
            [ep(0, 100, 40)], [make_movable(1, 90, 40)], 1_000_000, tree
        )
        assert assignments == []
        assert stats.counts[MessageType.INVITATION] == 1
