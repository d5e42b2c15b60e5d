"""Tests for FLG / BLG / IFLG expansion-point discovery."""

import random

import pytest

from repro.core import ExpansionKind, ExpansionPlanner, FloorGeometry, FloorRegistry
from repro.field import Field, Obstacle
from repro.geometry import Vec2
from repro.scenarios import clutter_field
from tests.oracles import ReferenceExpansionPlanner


def make_planner(field=None, rc=60.0, rs=40.0):
    field = field or Field(1000.0, 1000.0)
    floors = FloorGeometry.for_field(field, rs)
    registry = FloorRegistry(floors)
    planner = ExpansionPlanner(
        field=field,
        floors=floors,
        registry=registry,
        sensing_range=rs,
        expansion_radius=min(rc, rs),
    )
    return planner, registry


class TestFLG:
    def test_lone_sensor_on_floor_line_expands_both_ways(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 40))
        points = planner.expansion_points(0, Vec2(500, 40))
        flg = [p for p in points if p.kind is ExpansionKind.FLG]
        assert len(flg) == 2
        xs = sorted(p.position.x for p in flg)
        assert xs[0] == pytest.approx(460.0, abs=1.0)
        assert xs[1] == pytest.approx(540.0, abs=1.0)
        assert all(abs(p.position.y - 40.0) < 1e-6 for p in flg)

    def test_covered_frontier_is_not_expanded(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 40))
        registry.register(1, Vec2(540, 40))  # already holds the +x frontier
        points = planner.expansion_points(0, Vec2(500, 40))
        flg = [p for p in points if p.kind is ExpansionKind.FLG]
        assert all(p.position.x < 500 for p in flg)

    def test_off_line_sensor_expands_toward_floor_line(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 60))
        points = planner.expansion_points(0, Vec2(500, 60))
        flg = [p for p in points if p.kind is ExpansionKind.FLG]
        assert flg, "a sensor within rs of its floor line must find FLG points"
        assert all(abs(p.position.y - 40.0) < 5.0 for p in flg)

    def test_expansion_points_sorted_by_priority(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(30, 40))  # near the left boundary: FLG + BLG
        points = planner.expansion_points(0, Vec2(30, 40))
        kinds = [int(p.kind) for p in points]
        assert kinds == sorted(kinds)


class TestBLG:
    def test_sensor_near_left_boundary_finds_blg_points(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(20, 300))
        points = planner.expansion_points(0, Vec2(20, 300))
        blg = [p for p in points if p.kind is ExpansionKind.BLG]
        assert blg, "a sensor seeing the field boundary must find BLG points"

    def test_sensor_in_the_middle_finds_no_blg_points(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 500))
        points = planner.expansion_points(0, Vec2(500, 500))
        assert all(p.kind is not ExpansionKind.BLG for p in points)

    def test_obstacle_boundary_triggers_blg(self):
        field = Field(1000.0, 1000.0, [Obstacle.rectangle(520, 300, 700, 500)])
        planner, registry = make_planner(field=field)
        registry.register(0, Vec2(490, 400))
        points = planner.expansion_points(0, Vec2(490, 400))
        blg = [p for p in points if p.kind is ExpansionKind.BLG]
        assert blg

    def test_expansion_points_avoid_obstacles(self):
        field = Field(1000.0, 1000.0, [Obstacle.rectangle(520, 0, 700, 200)])
        planner, registry = make_planner(field=field)
        registry.register(0, Vec2(500, 40))
        points = planner.expansion_points(0, Vec2(500, 40))
        for p in points:
            assert field.is_free(p.position)


class TestIFLG:
    def test_gap_between_floor_neighbors_is_filled(self):
        planner, registry = make_planner(rc=60.0, rs=40.0)
        registry.register(0, Vec2(500, 40))
        registry.register(1, Vec2(540, 40))
        # Pretend the rest of the floor line is already covered so that FLG
        # does not fire; only the inter-floor corner between 0 and 1 remains.
        for i, x in enumerate([380, 420, 460, 580, 620, 660]):
            registry.register(100 + i, Vec2(float(x), 40.0))
        points = planner.expansion_points(0, Vec2(500, 40))
        iflg = [p for p in points if p.kind is ExpansionKind.IFLG]
        assert iflg, "an uncovered inter-floor hole should produce an IFLG point"
        for p in iflg:
            assert p.position.y > 40.0 or p.position.y < 40.0

    def test_no_iflg_without_floor_neighbors(self):
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 40))
        points = planner.expansion_points(0, Vec2(500, 40))
        assert all(p.kind is not ExpansionKind.IFLG for p in points)

    def test_no_iflg_when_hole_is_covered(self):
        planner, registry = make_planner(rc=60.0, rs=40.0)
        registry.register(0, Vec2(500, 40))
        registry.register(1, Vec2(540, 40))
        # A sensor sitting right on the inter-floor line above covers the hole.
        registry.register(2, Vec2(520, 80))
        points = planner.expansion_points(0, Vec2(500, 40))
        iflg_above = [
            p for p in points if p.kind is ExpansionKind.IFLG and p.position.y > 40
        ]
        assert not iflg_above


class TestPriorityKey:
    def test_priority_order_values(self):
        assert int(ExpansionKind.FLG) < int(ExpansionKind.BLG) < int(ExpansionKind.IFLG)


class TestMemo:
    """Each owner's last answer is reused until a change can reach it."""

    @staticmethod
    def _fresh_answer(planner, owner_id, position):
        fresh = ExpansionPlanner(
            field=planner.field,
            floors=planner.floors,
            registry=planner.registry,
            sensing_range=planner.sensing_range,
            expansion_radius=planner.expansion_radius,
        )
        return fresh.expansion_points(owner_id, position)

    def _setup(self):
        field = Field(1000.0, 1000.0, [Obstacle.rectangle(600, 300, 700, 400)])
        planner, registry = make_planner(field=field)
        registry.register(0, Vec2(560, 330))
        registry.register(1, Vec2(600, 290))
        return planner, registry, field

    def _assert_recomputed(self, planner, owner_id, position):
        before = planner.reused
        points = planner.expansion_points(owner_id, position)
        assert planner.reused == before, "a changed input must force a recompute"
        assert points == self._fresh_answer(planner, owner_id, position)

    def _assert_reused(self, planner, owner_id, position):
        before = planner.reused
        points = planner.expansion_points(owner_id, position)
        assert planner.reused == before + 1, "a change out of reach must not recompute"
        assert points == self._fresh_answer(planner, owner_id, position)
        return points

    def test_reused_answer_equals_fresh_planner(self):
        planner, _, _ = self._setup()
        first = planner.expansion_points(0, Vec2(560, 330))
        assert planner.reused == 0
        again = planner.expansion_points(0, Vec2(560, 330))
        assert planner.reused == 1
        assert again == first == self._fresh_answer(planner, 0, Vec2(560, 330))
        assert first, "the set-up must produce expansion points"

    def test_memo_is_per_owner(self):
        planner, _, _ = self._setup()
        planner.expansion_points(0, Vec2(560, 330))
        planner.expansion_points(1, Vec2(600, 290))
        planner.expansion_points(0, Vec2(560, 330))
        planner.expansion_points(1, Vec2(600, 290))
        assert planner.reused == 2

    def test_register_forces_recompute(self):
        planner, registry, _ = self._setup()
        planner.expansion_points(0, Vec2(560, 330))
        registry.register(2, Vec2(520, 330))
        self._assert_recomputed(planner, 0, Vec2(560, 330))

    def test_unregister_forces_recompute(self):
        planner, registry, _ = self._setup()
        planner.expansion_points(0, Vec2(560, 330))
        registry.unregister(1)
        self._assert_recomputed(planner, 0, Vec2(560, 330))

    def test_promote_virtual_forces_recompute(self):
        planner, registry, _ = self._setup()
        registry.register(5, Vec2(520, 330), virtual=True)
        planner.expansion_points(0, Vec2(560, 330))
        registry.promote_virtual(5, Vec2(521, 331))
        self._assert_recomputed(planner, 0, Vec2(560, 330))

    def test_obstacle_add_and_remove_force_recompute(self):
        planner, _, field = self._setup()
        before = planner.expansion_points(0, Vec2(560, 330))
        index = field.add_obstacle(Obstacle.rectangle(500, 340, 530, 380))
        self._assert_recomputed(planner, 0, Vec2(560, 330))
        field.remove_obstacle(index)
        self._assert_recomputed(planner, 0, Vec2(560, 330))
        assert planner.expansion_points(0, Vec2(560, 330)) == before

    def test_position_change_forces_recompute(self):
        planner, _, _ = self._setup()
        planner.expansion_points(0, Vec2(560, 330))
        self._assert_recomputed(planner, 0, Vec2(560.5, 330))
        self._assert_recomputed(planner, 0, Vec2(560.5, 330.5))

    def test_mutating_a_returned_list_does_not_leak(self):
        planner, _, _ = self._setup()
        first = planner.expansion_points(0, Vec2(560, 330))
        expected = list(first)
        first.clear()
        second = planner.expansion_points(0, Vec2(560, 330))
        assert planner.reused == 1
        assert second == expected
        second.append(second[0])
        assert planner.expansion_points(0, Vec2(560, 330)) == expected

    # ------------------------------------------------------------------
    # Dependency scope: only changes within reach force a recompute
    # ------------------------------------------------------------------
    def test_far_register_unregister_and_promote_reuse(self):
        planner, registry, _ = self._setup()
        first = planner.expansion_points(0, Vec2(560, 330))
        registry.register(7, Vec2(100, 900))
        assert self._assert_reused(planner, 0, Vec2(560, 330)) == first
        registry.unregister(7)
        self._assert_reused(planner, 0, Vec2(560, 330))
        registry.register(8, Vec2(900, 100), virtual=True)
        registry.promote_virtual(8, Vec2(901, 101))
        self._assert_reused(planner, 0, Vec2(560, 330))
        assert registry.version > 0 and planner.reused == 3

    def test_reuse_advances_the_checked_version(self):
        planner, registry, _ = self._setup()
        planner.expansion_points(0, Vec2(560, 330))
        registry.register(7, Vec2(100, 900))
        self._assert_reused(planner, 0, Vec2(560, 330))
        assert planner._memo[0].registry_version == registry.version

    def _box(self, planner, owner_id):
        box = planner._memo[owner_id].probe_box
        assert box is not None, "the set-up must probe the registry"
        return box

    def test_change_just_inside_the_probe_box_recomputes(self):
        planner, registry, _ = self._setup()
        planner.expansion_points(0, Vec2(560, 330))
        xmin, ymin, xmax, ymax = self._box(planner, 0)
        # The box corner farthest from the owner's record lies beyond 2R of
        # it, so only the box rule can catch a change there.
        corner = max(
            (
                Vec2(x, y)
                for x in (xmin + 1e-3, xmax - 1e-3)
                for y in (ymin + 1e-3, ymax - 1e-3)
            ),
            key=Vec2(560, 330).distance_to,
        )
        assert corner.distance_to(Vec2(560, 330)) > 2 * planner.expansion_radius
        registry.register(7, corner)
        self._assert_recomputed(planner, 0, Vec2(560, 330))

    def test_change_just_outside_the_probe_box_reuses(self):
        planner, registry, _ = self._setup()
        planner.expansion_points(0, Vec2(560, 330))
        owner = Vec2(560, 330)
        xmin, ymin, xmax, ymax = self._box(planner, 0)
        # Just outside the box, next to the corner farthest from the
        # owner's record (beyond 2R of it).
        outside = [
            Vec2(x, y)
            for x, y in (
                (xmin - 1e-3, ymin + 1e-3),
                (xmin + 1e-3, ymin - 1e-3),
                (xmax + 1e-3, ymin + 1e-3),
                (xmax - 1e-3, ymin - 1e-3),
                (xmin - 1e-3, ymax - 1e-3),
                (xmin + 1e-3, ymax + 1e-3),
                (xmax + 1e-3, ymax - 1e-3),
                (xmax - 1e-3, ymax + 1e-3),
            )
            if Vec2(x, y).distance_to(owner) > 2 * planner.expansion_radius
        ]
        assert len(outside) >= 2
        for node_id, point in enumerate(outside, start=7):
            registry.register(node_id, point)
        self._assert_reused(planner, 0, owner)

    def test_change_within_2r_of_the_record_recomputes(self):
        # On floor 1 at rs from its floor line: the floor-line piece is a
        # tangent point, no boundary is in range and there is no neighbour,
        # so nothing is probed and only the 2R rule applies.
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 80))
        assert planner.expansion_points(0, Vec2(500, 80)) == []
        assert planner._memo[0].probe_box is None
        two_r = 2 * planner.expansion_radius
        registry.register(1, Vec2(500 + two_r + 1e-3, 80))
        self._assert_reused(planner, 0, Vec2(500, 80))
        registry.register(2, Vec2(500 + two_r - 1e-3, 80))
        self._assert_recomputed(planner, 0, Vec2(500, 80))

    def test_reregistering_the_owner_recomputes(self):
        planner, registry, _ = self._setup()
        planner.expansion_points(0, Vec2(560, 330))
        registry.register(0, Vec2(560, 330))
        self._assert_recomputed(planner, 0, Vec2(560, 330))

    def test_registering_an_unregistered_owner_far_away_recomputes(self):
        # No record, so no 2R disk: only the owner-id rule applies.
        planner, registry = make_planner()
        registry.register(1, Vec2(900, 40))
        planner.expansion_points(0, Vec2(500, 80))
        assert planner._memo[0].record_xy is None
        registry.register(0, Vec2(880, 40))
        self._assert_recomputed(planner, 0, Vec2(500, 80))

    @pytest.mark.parametrize("seed", [2, 5])
    def test_random_operations_match_a_fresh_planner(self, seed):
        """300 register/unregister/promote operations on a clutter field;
        after each one every owner's answer equals a fresh planner's (and
        the ``Vec2`` reference's every tenth operation)."""
        rng = random.Random(seed)
        field = clutter_field(500.0, seed=seed)
        planner, registry = make_planner(field=field)
        reference = ReferenceExpansionPlanner(
            field=field,
            floors=planner.floors,
            registry=registry,
            sensing_range=planner.sensing_range,
            expansion_radius=planner.expansion_radius,
        )

        def free_point_near(anchor):
            while True:
                if anchor is None or rng.random() < 0.3:
                    x, y = rng.uniform(0, 500), rng.uniform(0, 500)
                else:
                    x = anchor.x + rng.uniform(-90, 90)
                    y = rng.choice([anchor.y, anchor.y + rng.uniform(-30, 30)])
                if field.is_free_xy(x, y):
                    return Vec2(x, y)

        next_id = 0
        virtual = set()
        calls = 0
        for op in range(300):
            records = registry.all_records()
            anchor = rng.choice(records).position if records else None
            roll = rng.random()
            if len(records) < 4 or (roll < 0.45 and len(records) < 30):
                registry.register(
                    next_id, free_point_near(anchor), virtual=rng.random() < 0.3
                )
                if registry.record(next_id).virtual:
                    virtual.add(next_id)
                next_id += 1
            elif roll < 0.65 and virtual:
                node_id = rng.choice(sorted(virtual))
                virtual.discard(node_id)
                registry.promote_virtual(node_id, free_point_near(anchor))
            elif roll < 0.8:
                node_id = rng.choice(records).node_id
                registry.register(node_id, free_point_near(anchor))
                virtual.discard(node_id)
            else:
                node_id = rng.choice(records).node_id
                registry.unregister(node_id)
                virtual.discard(node_id)
            for record in registry.all_records():
                owner, position = record.node_id, record.position
                got = planner.expansion_points(owner, position)
                calls += 1
                assert got == self._fresh_answer(planner, owner, position)
                if op % 10 == 0:
                    assert got == reference.expansion_points(owner, position)
        assert planner.reused + planner.recomputed == calls
        assert planner.reused > calls // 4, "far changes must be reused"
        assert planner.recomputed > 100
