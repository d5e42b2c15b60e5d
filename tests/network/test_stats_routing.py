"""Tests for message accounting and routing cost models."""

import pytest

from repro.network import (
    BASE_STATION_ID,
    ConnectivityTree,
    MessageStats,
    MessageType,
    RoutingCostModel,
)


def chain_tree(depth: int) -> ConnectivityTree:
    tree = ConnectivityTree()
    tree.attach(0, BASE_STATION_ID)
    for i in range(1, depth):
        tree.attach(i, i - 1)
    return tree


class TestMessageStats:
    def test_record_transmissions(self):
        stats = MessageStats()
        stats.record_transmissions(MessageType.COVERAGE_QUERY, 7)
        assert stats.total() == 7

    def test_negative_count_rejected(self):
        stats = MessageStats()
        with pytest.raises(ValueError):
            stats.record_transmissions(MessageType.COVERAGE_QUERY, -1)

    def test_by_type_breakdown(self):
        stats = MessageStats()
        stats.record_transmissions(MessageType.INVITATION, 3)
        stats.record_transmissions(MessageType.ACKNOWLEDGE, 1)
        breakdown = stats.by_type()
        assert breakdown[MessageType.INVITATION] == 3
        assert breakdown[MessageType.ACKNOWLEDGE] == 1


class TestRoutingCosts:
    def test_flood_cost_equals_member_count(self):
        stats = MessageStats()
        routing = RoutingCostModel(stats)
        assert routing.record_flood(25) == 25
        assert stats.total() == 25

    def test_to_base_station_cost_is_depth(self):
        stats = MessageStats()
        routing = RoutingCostModel(stats)
        tree = chain_tree(5)
        assert routing.record_to_base_station(tree, 4, MessageType.ARRIVAL_REPORT) == 5

    def test_tree_unicast_through_common_ancestor(self):
        stats = MessageStats()
        routing = RoutingCostModel(stats)
        tree = ConnectivityTree()
        tree.attach(0, BASE_STATION_ID)
        tree.attach(1, 0)
        tree.attach(2, 0)
        # 1 -> 0 -> 2 is two hops.
        assert routing.record_tree_unicast(tree, 1, 2, MessageType.ACKNOWLEDGE) == 2

    def test_tree_unicast_same_node(self):
        stats = MessageStats()
        routing = RoutingCostModel(stats)
        tree = chain_tree(3)
        assert routing.tree_route_hops(tree, 2, 2) == 0

    def test_random_walk_cost(self):
        stats = MessageStats()
        routing = RoutingCostModel(stats)
        assert routing.record_random_walk(48, MessageType.INVITATION) == 48
        assert stats.counts[MessageType.INVITATION] == 48

    def test_one_hop_cost(self):
        stats = MessageStats()
        routing = RoutingCostModel(stats)
        routing.record_one_hop(MessageType.NEIGHBOR_STATE, 3)
        assert stats.counts[MessageType.NEIGHBOR_STATE] == 3

    def test_subtree_lock_cost(self):
        stats = MessageStats()
        routing = RoutingCostModel(stats)
        tree = chain_tree(4)
        cost = routing.record_subtree_lock(tree, 0)
        # Subtree of 0 is the whole chain: 4 nodes, 3 edges, 6 transmissions.
        assert cost == 6
        assert stats.total() == 6


def branched_tree() -> ConnectivityTree:
    """BASE <- 0 <- 1 <- 2, plus BASE <- 0 <- 3."""
    tree = chain_tree(3)
    tree.attach(3, 0)
    return tree


#: FLOOR's virtual fixed nodes are route endpoints that never join the tree.
VIRTUAL_ID = 1_000_001


class TestTreeRouteHops:
    """Edge cases of the scalar chain walk, with literal hop counts.

    An id without a parent entry (a non-member, a virtual node, or a
    detached ancestor) ends its chain at the base station.
    """

    @pytest.mark.parametrize(
        "source,destination,hops",
        [
            (2, 3, 3),  # 2 -> 1 -> 0 -> 3
            (2, 0, 2),
            (2, BASE_STATION_ID, 3),
            (BASE_STATION_ID, 3, 2),
            (2, 50, 4),  # non-member: charged through the root
            (50, 3, 3),
            (BASE_STATION_ID, 50, 1),
            (3, VIRTUAL_ID, 3),
            (VIRTUAL_ID, 50, 2),
            (2, 2, 0),
            (50, 50, 0),
            (VIRTUAL_ID, VIRTUAL_ID, 0),
            (BASE_STATION_ID, BASE_STATION_ID, 0),
        ],
    )
    def test_members_base_station_and_outsiders(self, source, destination, hops):
        tree = branched_tree()
        assert RoutingCostModel.tree_route_hops(tree, source, destination) == hops
        assert RoutingCostModel.tree_route_hops(tree, destination, source) == hops

    @pytest.mark.parametrize(
        "source,destination,hops",
        [
            (2, 3, 4),  # 2 -> 1 -> BASE -> 0 -> 3
            (2, 1, 1),
            (2, BASE_STATION_ID, 2),
            (1, 3, 3),
            (3, 0, 1),  # the other branch is intact
        ],
    )
    def test_detached_mid_chain_ancestor(self, source, destination, hops):
        # A failure leaves this raw structure: 1 loses its parent entry
        # while 2 still points at it, so 2's chain ends 1 -> BASE.
        tree = branched_tree()
        tree.parent.pop(1)
        assert RoutingCostModel.tree_route_hops(tree, source, destination) == hops
        assert RoutingCostModel.tree_route_hops(tree, destination, source) == hops

    def test_cycle_raises(self):
        tree = branched_tree()
        tree.parent[0] = 2  # corrupt: 0 -> 2 -> 1 -> 0
        with pytest.raises(RuntimeError, match="cycle"):
            RoutingCostModel.tree_route_hops(tree, 3, BASE_STATION_ID)

    def test_unicast_charges_precomputed_hops(self):
        stats = MessageStats()
        routing = RoutingCostModel(stats)
        tree = branched_tree()
        assert routing.record_tree_unicast(
            tree, 2, 3, MessageType.ACKNOWLEDGE, attempts=2, hops=3
        ) == 3
        assert stats.counts[MessageType.ACKNOWLEDGE] == 6
