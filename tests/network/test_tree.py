"""Tests for the connectivity tree."""

import pytest

from repro.network import BASE_STATION_ID, ConnectivityTree


def build_sample_tree() -> ConnectivityTree:
    """base -> 0 -> {1, 2}; 1 -> 3."""
    tree = ConnectivityTree()
    tree.attach(0, BASE_STATION_ID)
    tree.attach(1, 0)
    tree.attach(2, 0)
    tree.attach(3, 1)
    return tree


class TestStructure:
    def test_membership(self):
        tree = build_sample_tree()
        assert 0 in tree and 3 in tree
        assert 99 not in tree
        assert BASE_STATION_ID in tree

    def test_parents_and_children(self):
        tree = build_sample_tree()
        assert tree.parent_of(3) == 1
        assert tree.parent_of(0) == BASE_STATION_ID
        assert tree.children_of(0) == {1, 2}
        assert tree.children_of(3) == set()

    def test_ancestors(self):
        tree = build_sample_tree()
        assert tree.ancestors_of(3) == [1, 0, BASE_STATION_ID]
        assert tree.ancestors_of(0) == [BASE_STATION_ID]

    def test_depth(self):
        tree = build_sample_tree()
        assert tree.depth_of(BASE_STATION_ID) == 0
        assert tree.depth_of(0) == 1
        assert tree.depth_of(3) == 3

    def test_subtree(self):
        tree = build_sample_tree()
        assert tree.subtree_of(0) == {0, 1, 2, 3}
        assert tree.subtree_of(1) == {1, 3}

    def test_validate_passes_for_consistent_tree(self):
        build_sample_tree().validate()


class TestMutation:
    def test_attach_requires_known_parent(self):
        tree = ConnectivityTree()
        with pytest.raises(ValueError):
            tree.attach(1, 42)

    def test_attach_rejects_self_parent(self):
        tree = ConnectivityTree()
        with pytest.raises(ValueError):
            tree.attach(1, 1)

    def test_detach_keeps_subtree(self):
        tree = build_sample_tree()
        tree.detach(1, keep_subtree=True)
        assert tree.parent_of(1) is None
        assert 1 not in tree.children_of(0)
        assert tree.children_of(1) == {3}

    def test_detach_removes_subtree(self):
        tree = build_sample_tree()
        tree.detach(1, keep_subtree=False)
        assert tree.parent_of(3) is None
        assert 3 not in tree.children.get(1, set())

    def test_reparent_moves_subtree(self):
        tree = build_sample_tree()
        assert tree.reparent(1, 2)
        assert tree.parent_of(1) == 2
        assert tree.ancestors_of(3) == [1, 2, 0, BASE_STATION_ID]

    def test_reparent_rejects_loop(self):
        tree = build_sample_tree()
        assert not tree.reparent(0, 3)  # 3 is a descendant of 0
        assert tree.parent_of(0) == BASE_STATION_ID

    def test_reparent_to_unknown_parent_fails(self):
        tree = build_sample_tree()
        assert not tree.reparent(1, 77)

    def test_would_create_loop(self):
        tree = build_sample_tree()
        assert tree.would_create_loop(0, 3)
        assert tree.would_create_loop(1, 1)
        assert not tree.would_create_loop(3, 2)
        assert not tree.would_create_loop(1, BASE_STATION_ID)


class TestLockCost:
    def test_leaf_lock_is_free(self):
        tree = build_sample_tree()
        assert tree.lock_subtree_message_count(3) == 0

    def test_internal_node_lock_cost(self):
        tree = build_sample_tree()
        # Subtree of 0 has 4 nodes -> 3 edges -> 6 transmissions.
        assert tree.lock_subtree_message_count(0) == 6
