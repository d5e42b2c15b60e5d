"""Property-based tests for the connectivity tree under random operations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import BASE_STATION_ID, ConnectivityTree


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=25))
def test_random_attach_reparent_sequences_keep_tree_consistent(seed, node_count):
    """Arbitrary sequences of attach/reparent operations never corrupt the tree."""
    rng = random.Random(seed)
    tree = ConnectivityTree()
    members = []
    for node_id in range(node_count):
        parent = BASE_STATION_ID if not members else rng.choice(members + [BASE_STATION_ID])
        tree.attach(node_id, parent)
        members.append(node_id)

    for _ in range(2 * node_count):
        node = rng.choice(members)
        new_parent = rng.choice(members + [BASE_STATION_ID])
        # A move under the node itself or one of its descendants would
        # close a loop and must be refused; an accepted one is validated
        # below anyway.
        loops = new_parent in tree.subtree_of(node)
        moved = tree.reparent(node, new_parent)
        assert not (loops and moved)
        if moved:
            assert tree.parent_of(node) == new_parent

    # Invariants: structure validates, every node reaches the base station,
    # and subtree relations are consistent with ancestor chains.
    tree.validate()
    for node in members:
        ancestors = tree.ancestors_of(node)
        assert ancestors[-1] == BASE_STATION_ID
        for ancestor in ancestors[:-1]:
            assert node in tree.subtree_of(ancestor)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=20))
def test_subtrees_partition_children(seed, node_count):
    """The subtrees of the base station's children partition all nodes."""
    rng = random.Random(seed)
    tree = ConnectivityTree()
    members = []
    for node_id in range(node_count):
        parent = BASE_STATION_ID if not members else rng.choice(members + [BASE_STATION_ID])
        tree.attach(node_id, parent)
        members.append(node_id)

    roots = tree.children_of(BASE_STATION_ID)
    seen = set()
    for root in roots:
        subtree = tree.subtree_of(root)
        assert not (subtree & seen), "subtrees of distinct roots must be disjoint"
        seen |= subtree
    assert seen == set(members)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=20))
def test_lock_cost_is_twice_subtree_edges(seed, node_count):
    rng = random.Random(seed)
    tree = ConnectivityTree()
    members = []
    for node_id in range(node_count):
        parent = BASE_STATION_ID if not members else rng.choice(members + [BASE_STATION_ID])
        tree.attach(node_id, parent)
        members.append(node_id)
    node = rng.choice(members)
    size = len(tree.subtree_of(node))
    assert tree.lock_subtree_message_count(node) == 2 * (size - 1)
