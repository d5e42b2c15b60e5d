"""Tests for the floor registry and coverage-status queries."""

import pytest

from repro.core import FloorGeometry, FloorRegistry
from repro.geometry import Vec2
from tests.oracles import ExhaustiveFloorRegistry


def make_registry(rs=40.0, size=1000.0, cls=FloorRegistry) -> FloorRegistry:
    floors = FloorGeometry(sensing_range=rs, field_height=size, field_width=size)
    return cls(floors)


class TestRegistration:
    def test_register_files_by_floor(self):
        registry = make_registry()
        floor = registry.register(1, Vec2(100, 40))
        assert floor == 0
        assert registry.floor_of(1) == 0
        assert [r.node_id for r in registry.all_records()] == [1]

    def test_unregister(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        registry.unregister(1)
        assert registry.floor_of(1) is None
        assert registry.count() == 0

    def test_promote_virtual(self):
        registry = make_registry()
        registry.register(9, Vec2(100, 40), virtual=True)
        assert registry.count(include_virtual=False) == 0
        registry.promote_virtual(9, Vec2(100, 42))
        assert registry.count(include_virtual=False) == 1

    def test_reregistration_overwrites(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        registry.register(1, Vec2(100, 200))
        assert registry.floor_of(1) == 2
        assert registry.count() == 1 or registry.floor_of(1) == 2


class TestCoverageQueries:
    def test_covered_point(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        assert registry.is_point_covered(110.0, 50.0, 40.0) is True

    def test_uncovered_point(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        assert registry.is_point_covered(500.0, 500.0, 40.0) is False

    def test_exclusion_list(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        assert not registry.is_point_covered(110.0, 50.0, 40.0, exclude=[1])

    def test_virtual_nodes_count_for_coverage(self):
        registry = make_registry()
        registry.register(7, Vec2(100, 40), virtual=True)
        assert registry.is_point_covered(100.0, 40.0, 40.0)


class TestNeighborsAndSummary:
    def test_neighbors_on_floor(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        registry.register(2, Vec2(140, 40))
        registry.register(3, Vec2(400, 40))
        neighbors = registry.neighbors_on_floor(1, radius=80.0)
        assert [r.node_id for r in neighbors] == [2]

    def test_neighbors_of_unknown_node(self):
        assert make_registry().neighbors_on_floor(99, radius=80.0) == []


class TestSpatialIndexParity:
    """The indexed registry queries must agree with the exhaustive scan."""

    def _random_registries(self, rng, rs=40.0, size=1000.0, n=80):
        indexed = make_registry(rs=rs, size=size)
        brute = make_registry(rs=rs, size=size, cls=ExhaustiveFloorRegistry)
        for node_id in range(n):
            pos = Vec2(rng.uniform(0, size), rng.uniform(0, size))
            virtual = rng.random() < 0.2
            indexed.register(node_id, pos, virtual=virtual)
            brute.register(node_id, pos, virtual=virtual)
        # Churn: unregister some, re-register others elsewhere, promote one.
        for node_id in rng.sample(range(n), n // 5):
            indexed.unregister(node_id)
            brute.unregister(node_id)
        for node_id in rng.sample(range(n), n // 5):
            pos = Vec2(rng.uniform(0, size), rng.uniform(0, size))
            indexed.register(node_id, pos)
            brute.register(node_id, pos)
        promoted = Vec2(rng.uniform(0, size), rng.uniform(0, size))
        indexed.promote_virtual(0, promoted)
        brute.promote_virtual(0, promoted)
        return indexed, brute

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_is_point_covered_parity(self, seed):
        import random

        rng = random.Random(seed)
        indexed, brute = self._random_registries(rng)
        for _ in range(200):
            point = Vec2(rng.uniform(-50, 1050), rng.uniform(-50, 1050))
            sensing_range = rng.uniform(5.0, 120.0)
            exclude = rng.sample(range(80), rng.randint(0, 4))
            assert indexed.is_point_covered(
                point.x, point.y, sensing_range, exclude=exclude
            ) == brute.is_point_covered(
                point.x, point.y, sensing_range, exclude=exclude
            )

    @pytest.mark.parametrize("seed", [5, 17])
    def test_neighbors_on_floor_parity(self, seed):
        import random

        rng = random.Random(seed)
        indexed, brute = self._random_registries(rng)
        for node_id in range(80):
            radius = rng.uniform(10.0, 200.0)
            fast = indexed.neighbors_on_floor(node_id, radius)
            slow = brute.neighbors_on_floor(node_id, radius)
            # The same records; the indexed query lists them in x order.
            assert [r.position.x for r in fast] == sorted(r.position.x for r in fast)
            assert sorted(fast, key=lambda r: r.node_id) == sorted(
                slow, key=lambda r: r.node_id
            )


class TestVersion:
    def test_register_and_unregister_bump_version(self):
        registry = make_registry()
        assert registry.version == 0
        registry.register(1, Vec2(100, 40))
        after_register = registry.version
        assert after_register > 0
        registry.unregister(1)
        assert registry.version > after_register

    def test_noop_unregister_keeps_version(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        version = registry.version
        registry.unregister(99)
        registry.unregister(99)
        assert registry.version == version

    def test_promote_virtual_bumps_version(self):
        registry = make_registry()
        registry.register(9, Vec2(100, 40), virtual=True)
        version = registry.version
        registry.promote_virtual(9, Vec2(100, 40))
        assert registry.version > version

    def test_queries_see_changes_after_a_cached_scan(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        assert registry.is_point_covered(110.0, 50.0, 40.0)
        registry.unregister(1)
        assert not registry.is_point_covered(110.0, 50.0, 40.0)
        registry.register(2, Vec2(120, 40))
        assert registry.is_point_covered(110.0, 50.0, 40.0)
        assert [r.node_id for r in registry.neighbors_on_floor(2, 80.0)] == []


class TestJournal:
    """One ``(x, y, node_id, added)`` entry per version bump."""

    def test_each_bump_is_journalled(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        registry.register(2, Vec2(300, 120), virtual=True)
        registry.promote_virtual(2, Vec2(310, 125))
        registry.register(1, Vec2(100, 200))
        registry.unregister(2)
        registry.unregister(99)  # absent: no change
        assert registry.changes_since(0) == [
            (100, 40, 1, True),
            (300, 120, 2, True),
            (300, 120, 2, False),
            (310, 125, 2, True),
            (100, 40, 1, False),
            (100, 200, 1, True),
            (310, 125, 2, False),
        ]
        assert len(registry.changes_since(0)) == registry.version

    def test_changes_since_a_version(self):
        registry = make_registry()
        registry.register(1, Vec2(100, 40))
        version = registry.version
        assert registry.changes_since(version) == []
        registry.register(2, Vec2(200, 40))
        assert registry.changes_since(version) == [(200, 40, 2, True)]
        registry.unregister(1)
        assert registry.changes_since(version + 1) == [(100, 40, 1, False)]

    def test_record_lookup(self):
        registry = make_registry()
        assert registry.record(1) is None
        registry.register(1, Vec2(100, 40), virtual=True)
        assert registry.record(1).position == Vec2(100, 40)
        registry.promote_virtual(1, Vec2(100, 200))
        assert registry.record(1).position == Vec2(100, 200)
        assert not registry.record(1).virtual


class TestScanParityEdgeCases:
    """Order and exclusion cases of the array scans against the oracle."""

    def _pair(self):
        return make_registry(), make_registry(cls=ExhaustiveFloorRegistry)

    def test_neighbors_come_in_x_order_not_registration_order(self):
        import random

        rng = random.Random(3)
        fast, brute = self._pair()
        ids = list(range(40))
        rng.shuffle(ids)
        for node_id in ids:
            # Interleave floors so the store is not in registration order.
            pos = Vec2(rng.uniform(0, 400), rng.choice([30.0, 50.0, 120.0]))
            fast.register(node_id, pos)
            brute.register(node_id, pos)
        for node_id in rng.sample(ids, 10):
            # Re-registration moves a record to the end of its floor.
            pos = Vec2(rng.uniform(0, 400), 40.0)
            fast.register(node_id, pos)
            brute.register(node_id, pos)
        saw_other_order = False
        for node_id in ids:
            got = fast.neighbors_on_floor(node_id, 150.0)
            want = brute.neighbors_on_floor(node_id, 150.0)
            assert got == sorted(want, key=lambda r: r.position.x)
            saw_other_order |= got != want
        assert saw_other_order, "the case must exercise a non-registration order"

    @pytest.mark.parametrize("seed", [4, 9])
    def test_excluding_every_covering_node(self, seed):
        import random

        rng = random.Random(seed)
        fast, brute = self._pair()
        for node_id in range(60):
            pos = Vec2(rng.uniform(0, 300), rng.uniform(0, 300))
            fast.register(node_id, pos)
            brute.register(node_id, pos)
        records = fast.all_records()
        for _ in range(150):
            point = Vec2(rng.uniform(0, 300), rng.uniform(0, 300))
            rs = rng.uniform(10.0, 60.0)
            covering = [
                r.node_id for r in records if r.position.distance_to(point) <= rs
            ]
            for exclude in (
                covering,
                set(covering),
                tuple(covering[:-1]),
                covering + [999],
                [],
            ):
                assert fast.is_point_covered(
                    point.x, point.y, rs, exclude=exclude
                ) == brute.is_point_covered(point.x, point.y, rs, exclude=exclude)
