"""Tests for FLG / BLG / IFLG expansion-point discovery."""

import pytest

from repro.core import ExpansionKind, ExpansionPlanner, FloorGeometry, FloorRegistry
from repro.field import Field, Obstacle
from repro.geometry import Vec2


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
    """Each owner's last answer is reused until its inputs change."""

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
