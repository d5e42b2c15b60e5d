"""Tests for FLG / BLG / IFLG expansion-point discovery."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ExpansionKind, ExpansionPlanner, FloorGeometry, FloorRegistry
from repro.field import Field, Obstacle
from repro.geometry import Vec2
from repro.scenarios import clutter_field
from tests.oracles import ReferenceExpansionPlanner, RoundPlanner


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

    def _assert_recomputed(self, planner, owner_id, position, parts=None):
        """Recompute; ``parts`` is the expected ``(flg, blg, iflg)`` count
        of part recomputations, when given."""
        before = planner.reused
        parts_before = list(planner.recomputed_parts)
        points = planner.expansion_points(owner_id, position)
        assert planner.reused == before, "a changed input must force a recompute"
        assert points == self._fresh_answer(planner, owner_id, position)
        if parts is not None:
            done = tuple(
                after - was
                for after, was in zip(planner.recomputed_parts, parts_before)
            )
            assert done == parts

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

    def test_unregistering_a_covering_record_recomputes(self):
        planner, registry, _ = self._setup()
        # Record 2 covers the FLG frontier at x ~ 533.5 on the floor line.
        registry.register(2, Vec2(520, 360))
        covered = planner.expansion_points(0, Vec2(560, 330))
        registry.unregister(2)
        # IFLG goes too: record 2 was a same-floor neighbour within 2R.
        self._assert_recomputed(planner, 0, Vec2(560, 330), parts=(1, 0, 1))
        assert planner.expansion_points(0, Vec2(560, 330)) != covered

    def test_unregistering_a_record_that_covers_no_probe_reuses(self):
        # Record 1 is on the floor below the owner's and out of every
        # probe's reach.
        planner, registry, _ = self._setup()
        first = planner.expansion_points(0, Vec2(560, 330))
        registry.unregister(1)
        assert self._assert_reused(planner, 0, Vec2(560, 330)) == first

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

    def test_a_spiralled_search_is_recomputed_on_any_obstacle_change(self):
        # The first obstacle's left edge runs inside the second, so a BLG
        # frontier lies in an obstacle and ``nearest_free`` spirals: the
        # search's reads are unbounded, and even a far obstacle change
        # recomputes BLG, and only BLG.
        field = Field(
            1000.0,
            1000.0,
            [
                Obstacle.rectangle(600, 300, 700, 400),
                Obstacle.rectangle(570, 330, 640, 390),
            ],
        )
        planner, registry = make_planner(field=field)
        owner = Vec2(564, 340)
        registry.register(0, owner)
        planner.expansion_points(0, owner)
        assert planner._memo[0].parts[ExpansionKind.BLG].reach is None
        field.add_obstacle(Obstacle.rectangle(900, 900, 950, 950))
        self._assert_recomputed(planner, 0, owner, parts=(0, 1, 0))

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

    @staticmethod
    def _probes(planner, owner_id, kind):
        probes = planner._memo[owner_id].parts[kind].probes
        assert probes, "the set-up must probe the registry"
        return probes

    @staticmethod
    def _beyond(probe, owner, distance):
        """The point at ``distance`` from ``probe`` on the ray from the
        owner through the probe."""
        dx, dy = probe[0] - owner.x, probe[1] - owner.y
        norm = (dx * dx + dy * dy) ** 0.5
        return Vec2(probe[0] + dx / norm * distance, probe[1] + dy / norm * distance)

    def test_change_just_inside_a_probes_reach_recomputes(self):
        planner, registry, _ = self._setup()
        owner = Vec2(560, 330)
        planner.expansion_points(0, owner)
        probe = self._probes(planner, 0, ExpansionKind.FLG)[-1]
        assert not probe[2], "the probe must be uncovered"
        point = self._beyond(probe, owner, planner.sensing_range - 1e-3)
        registry.register(7, point)
        # Only the FLG part probed near it; IFLG goes too, since the new
        # record is on the owner's floor within 2R of its record.
        self._assert_recomputed(planner, 0, owner, parts=(1, 0, 1))

    def test_change_just_outside_every_probes_reach_reuses(self):
        planner, registry, _ = self._setup()
        owner = Vec2(560, 330)
        planner.expansion_points(0, owner)
        probes = self._probes(planner, 0, ExpansionKind.FLG)
        reach = planner.sensing_range + 1e-3
        outside = [self._beyond(probe, owner, reach) for probe in probes]
        for point in outside:
            assert point.distance_to(owner) > 2 * planner.expansion_radius
            assert all(
                point.distance_to(Vec2(px, py)) > planner.sensing_range + 1e-6
                for px, py, _ in probes
            )
        for node_id, point in enumerate(outside, start=7):
            registry.register(node_id, point)
        self._assert_reused(planner, 0, owner)

    def test_added_record_near_a_covered_probe_reuses(self):
        # An added record can only cover a probe: near a probe that was
        # already covered (and beyond 2R of the owner's record) it
        # changes nothing.
        planner, registry = make_planner(rc=30.0, rs=40.0)
        registry.register(0, Vec2(30, 40))
        registry.register(1, Vec2(75, 40))
        first = planner.expansion_points(0, Vec2(30, 40))
        assert (70.0, 40.0, True) in self._probes(planner, 0, ExpansionKind.FLG)
        registry.register(2, Vec2(100, 40))
        assert self._assert_reused(planner, 0, Vec2(30, 40)) == first

    def test_removed_record_near_an_uncovered_probe_reuses(self):
        # A removed record can only uncover a probe.  Record 7 sits on the
        # floor above the FLG probes' floor line (y = 360), rs from a
        # probe: within reach, but the floor filter keeps it from
        # covering the probe.
        planner, registry, _ = self._setup()
        owner = Vec2(560, 330)
        registry.register(7, Vec2(586.457513110646, 400.0))
        first = planner.expansion_points(0, owner)
        probe = self._probes(planner, 0, ExpansionKind.FLG)[0]
        assert probe == (586.457513110646, 360.0, False)
        registry.unregister(7)
        assert self._assert_reused(planner, 0, owner) == first

    def test_change_near_an_flg_probe_recomputes_flg_alone(self):
        # Every part probes; record 2 covers only the FLG frontier at
        # (70, 40), is beyond 2R of the owner's record and out of reach of
        # the BLG and IFLG probes.
        planner, registry = make_planner(rc=30.0, rs=40.0)
        registry.register(0, Vec2(30, 40))
        registry.register(1, Vec2(75, 40))
        registry.register(2, Vec2(105, 40))
        planner.expansion_points(0, Vec2(30, 40))
        for kind in ExpansionKind:
            self._probes(planner, 0, kind)
        registry.unregister(2)
        self._assert_recomputed(planner, 0, Vec2(30, 40), parts=(1, 0, 0))

    def test_change_within_2r_of_the_record_recomputes(self):
        # On floor 1 at rs from its floor line: the floor-line piece is a
        # tangent point, no boundary is in range and there is no neighbour,
        # so nothing is probed and only the 2R rule applies.
        planner, registry = make_planner()
        registry.register(0, Vec2(500, 80))
        assert planner.expansion_points(0, Vec2(500, 80)) == []
        assert all(not part.probes for part in planner._memo[0].parts)
        two_r = 2 * planner.expansion_radius
        registry.register(1, Vec2(500 + two_r + 1e-3, 80))
        self._assert_reused(planner, 0, Vec2(500, 80))
        # Within 2R but on the floor below: not a same-floor neighbour.
        registry.register(3, Vec2(500, 79.9))
        self._assert_reused(planner, 0, Vec2(500, 80))
        registry.register(2, Vec2(500 + two_r - 1e-3, 80))
        self._assert_recomputed(planner, 0, Vec2(500, 80), parts=(0, 0, 1))

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
        assert planner._memo[0].record is None
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
        assert planner.iflg_neighbors_reused > 0 < planner.iflg_neighbors_computed

    @pytest.mark.parametrize("seed", [3, 8])
    def test_random_changes_with_obstacles_match_a_fresh_planner(self, seed):
        """150 random register/unregister/promote operations and obstacle
        additions and removals on a clutter field, with searchers that
        are registered, that stand away from their record and that have
        none; after each step every searcher's answer and its
        floors-asked count equal a fresh planner's."""
        rng = random.Random(seed)
        field = clutter_field(500.0, seed=seed)
        planner, registry = make_planner(field=field)
        floors = planner.floors

        def free_point():
            while True:
                x, y = rng.uniform(0, 500), rng.uniform(0, 500)
                if rng.random() < 0.5:
                    # On a floor line, where FLG probes and records meet.
                    y = floors.floor_line_y(floors.floor_index(y))
                if field.is_free_xy(x, y):
                    return Vec2(x, y)

        # Searchers 0-5 are registered at their positions, 6-7 stand away
        # from their records and 8-9 start unregistered.
        searchers = {node_id: free_point() for node_id in range(10)}
        for node_id in range(8):
            registry.register(node_id, searchers[node_id])
        for node_id in (6, 7):
            searchers[node_id] = searchers[node_id] + Vec2(7.5, 0.0)
        added_obstacles = []
        virtual = set()
        next_id = 100
        calls = 0
        for _ in range(150):
            records = registry.all_records()
            roll = rng.random()
            if roll < 0.35:
                node_id = rng.choice([next_id, next_id, *searchers])
                next_id += 1
                registry.register(node_id, free_point(), virtual=rng.random() < 0.4)
                if registry.record(node_id).virtual:
                    virtual.add(node_id)
            elif roll < 0.5 and virtual:
                node_id = rng.choice(sorted(virtual))
                virtual.discard(node_id)
                registry.promote_virtual(node_id, free_point())
            elif roll < 0.7 and records:
                node_id = rng.choice(records).node_id
                registry.unregister(node_id)
                virtual.discard(node_id)
            elif roll < 0.8 and added_obstacles:
                field.remove_obstacle(added_obstacles.pop())
            elif roll < 0.9:
                x, y = rng.uniform(0, 470), rng.uniform(0, 470)
                added_obstacles.append(
                    field.add_obstacle(Obstacle.rectangle(x, y, x + 20, y + 20))
                )
            else:
                node_id = rng.choice(sorted(searchers))
                searchers[node_id] = free_point()
            for owner, position in sorted(searchers.items()):
                if not field.is_free(position):
                    continue
                got = planner.expansion_points(owner, position)
                calls += 1
                assert got == self._fresh_answer(planner, owner, position)
                asked = (
                    len(floors.floors_possibly_covering(got[0].position, 40.0))
                    if got
                    else 0
                )
                assert planner._memo[owner].floors_asked == asked
        assert planner.reused + planner.recomputed == calls
        assert planner.reused > calls // 4
        assert all(
            0 < done < planner.recomputed for done in planner.recomputed_parts
        ), "some recomputations must keep a part"


class TestIFLGNeighborMemo:
    """A recomputed IFLG part searches again only the neighbours a change
    touched: new or moved ones, and those with a probe it could flip."""

    OWNER = Vec2(500, 40)

    def _setup(self):
        # Neighbours 1 and 2 each give one IFLG point toward the
        # inter-floor line y = 80; neighbour 3 crosses the owner's circle
        # below it (no inter-floor line there), so it probes nothing.
        planner, registry = make_planner()
        registry.register(0, self.OWNER)
        registry.register(1, Vec2(560, 40))
        registry.register(2, Vec2(440, 40))
        registry.register(3, Vec2(500, 0))
        reference = ReferenceExpansionPlanner(
            field=planner.field,
            floors=planner.floors,
            registry=registry,
            sensing_range=planner.sensing_range,
            expansion_radius=planner.expansion_radius,
        )
        points = self._check(planner, reference, (0, 3))
        assert [p.kind for p in points] == [ExpansionKind.IFLG] * 2
        return planner, registry, reference

    def _check(self, planner, reference, counts):
        """Ask the owner; its points equal the reference's and ``counts``
        is the ``(reused, computed)`` neighbour evaluations it made."""
        before = (planner.iflg_neighbors_reused, planner.iflg_neighbors_computed)
        points = planner.expansion_points(0, self.OWNER)
        assert points == reference.expansion_points(0, self.OWNER)
        assert (
            planner.iflg_neighbors_reused - before[0],
            planner.iflg_neighbors_computed - before[1],
        ) == counts
        return points

    def test_a_moved_neighbour_is_searched_again_alone(self):
        planner, registry, reference = self._setup()
        registry.register(1, Vec2(561, 40))
        self._check(planner, reference, (2, 1))

    def test_a_removed_neighbour_leaves_the_others_reused(self):
        planner, registry, reference = self._setup()
        registry.unregister(2)
        self._check(planner, reference, (2, 0))
        registry.register(2, Vec2(440, 40))
        self._check(planner, reference, (2, 1))

    def test_a_neighbour_readded_at_the_same_point(self):
        # Its removal and re-registration land within reach of its own EP
        # probe (on its expansion circle) but cancel at their point: its
        # entry comes back and nothing is searched again.
        planner, registry, reference = self._setup()
        registry.unregister(2)
        registry.register(2, Vec2(440, 40))
        self._check(planner, reference, (3, 0))

    @pytest.mark.parametrize("added_first", [True, False])
    def test_a_neighbour_replaced_at_its_point_keeps_its_entry(self, added_first):
        # A sensor arriving at its place-holder's point: another record
        # takes the neighbour's place, before or after it goes.
        planner, registry, reference = self._setup()
        if added_first:
            registry.register(7, Vec2(440, 40))
            registry.unregister(2)
        else:
            registry.unregister(2)
            registry.register(7, Vec2(440, 40))
        self._check(planner, reference, (3, 0))

    def test_a_replacement_that_moved_from_a_probe_searches_again(self):
        # The replacing record stood within reach of neighbour 1's covered
        # hole probe: its move uncovers the probe, so neighbour 1 is
        # searched again while the replaced entry is kept.
        planner, registry, reference = self._setup()
        registry.register(7, Vec2(530, 100))
        self._check(planner, reference, (2, 1))
        registry.register(7, Vec2(440, 40))
        registry.unregister(2)
        self._check(planner, reference, (2, 1))

    @staticmethod
    def _beyond_hole_probe(planner, offset):
        """A point ``rs + offset`` beyond neighbour 1's uncovered hole
        probe (530, 80), on the ray from the owner: on the floor above,
        out of reach of every other probe."""
        probe = planner._memo[0].neighbors[(1, 560, 40)].probes[0]
        assert probe == (530.0, 80.0, False)
        distance = planner.sensing_range + offset
        return Vec2(530.0 + 0.6 * distance, 80.0 + 0.8 * distance)

    def test_an_addition_just_inside_one_probes_reach(self):
        planner, registry, reference = self._setup()
        registry.register(9, self._beyond_hole_probe(planner, -1e-3))
        points = self._check(planner, reference, (2, 1))
        assert len(points) == 1, "the new record covers neighbour 1's hole"

    def test_an_addition_just_outside_every_probes_reach(self):
        planner, registry, reference = self._setup()
        registry.register(9, self._beyond_hole_probe(planner, 1e-3))
        reused = planner.reused
        assert len(self._check(planner, reference, (0, 0))) == 2
        assert planner.reused == reused + 1

    def test_an_owner_record_move_searches_every_probing_neighbour(self):
        # The owner's record is (near) the centre of its expansion circle,
        # so it lies within rs of every EP probe on that circle: the reach
        # test cannot rule out a flip, and only neighbour 3, which probed
        # nothing, is reused.
        planner, registry, reference = self._setup()
        registry.register(0, self.OWNER + Vec2(0.0, 0.5))
        self._check(planner, reference, (1, 2))

    def test_an_owner_reregistered_at_its_point_reuses_every_neighbour(self):
        # The removal and the new record cancel at the point: a probe
        # either sees both or, excluding the owner, neither.
        planner, registry, reference = self._setup()
        registry.register(0, self.OWNER)
        self._check(planner, reference, (3, 0))

    def test_a_far_field_change_searches_no_neighbour(self):
        planner, _, reference = self._setup()
        reused = planner.reused
        planner.field.add_obstacle(Obstacle.rectangle(900, 900, 950, 950))
        self._check(planner, reference, (0, 0))
        assert planner.reused == reused + 1

    def test_a_field_change_searches_the_neighbours_it_reaches(self):
        # The obstacle blocks neighbour 1's hole probe (530, 80) alone.
        planner, _, reference = self._setup()
        index = planner.field.add_obstacle(Obstacle.rectangle(529, 79, 531, 81))
        assert len(self._check(planner, reference, (2, 1))) == 1
        planner.field.remove_obstacle(index)
        assert len(self._check(planner, reference, (2, 1))) == 2


class TestPushedInvalidation:
    """Random register, unregister, ``promote_virtual``, ``hand_over``
    and obstacle changes, and owners that move or sit a round out, on a
    small field with several owners: after every step, every owner's
    answer equals the memo-free reference's, whether the change was
    routed to it or not, and whether or not it was asked since its last
    answer.  A second planner on the same registry and field runs a round
    of every owner after some of the steps
    (:meth:`ExpansionPlanner.advertise` against :class:`RoundPlanner`),
    so its owners too meet changes routed to them over several steps."""

    #: Owners 0-2 on the first floor line, 3-5 (virtual place-holders)
    #: on the second: each has same-floor neighbours within 2R.
    OWNERS = {
        0: Vec2(40.0, 40.0),
        1: Vec2(95.0, 40.0),
        2: Vec2(150.0, 40.0),
        3: Vec2(60.0, 120.0),
        4: Vec2(115.0, 120.0),
        5: Vec2(230.0, 120.0),
    }

    @staticmethod
    def _near_a_probe(planner, owners, data):
        """A point just inside or just outside ``rs`` of one of an owner's
        coverage probes (in any direction, or straight out from the owner,
        which puts it at the edge of the answer's probe reach when the
        probe is the farthest), or anywhere on the field."""
        probes = [
            (owners[owner], probe)
            for owner in sorted(owners)
            if owner in planner._memo
            for part in planner._memo[owner].parts
            for probe in part.probes
        ]
        if not probes or data.draw(st.booleans()):
            return Vec2(
                data.draw(st.floats(0.0, 300.0)), data.draw(st.floats(0.0, 300.0))
            )
        owner, (px, py, _) = data.draw(st.sampled_from(probes))
        if data.draw(st.booleans()) and (px, py) != (owner.x, owner.y):
            angle = math.atan2(py - owner.y, px - owner.x)
        else:
            angle = data.draw(st.floats(0.0, 2.0 * math.pi))
        distance = planner.sensing_range + data.draw(st.sampled_from([-1e-3, 1e-3]))
        return Vec2(px + distance * math.cos(angle), py + distance * math.sin(angle))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_answer_equals_the_reference_after_every_change(self, data):
        field = Field(300.0, 300.0, [Obstacle.rectangle(190.0, 150.0, 230.0, 190.0)])
        planner, registry = make_planner(field=field)
        reference = ReferenceExpansionPlanner(
            field=field,
            floors=planner.floors,
            registry=registry,
            sensing_range=planner.sensing_range,
            expansion_radius=planner.expansion_radius,
        )
        rounds, round_reference = (
            kind(
                field=field,
                floors=planner.floors,
                registry=registry,
                sensing_range=planner.sensing_range,
                expansion_radius=planner.expansion_radius,
            )
            for kind in (ExpansionPlanner, RoundPlanner)
        )
        owners = dict(self.OWNERS)
        for owner, position in owners.items():
            registry.register(owner, position, virtual=owner >= 3)
        others = set()
        added = []
        next_id = 100

        def check(asked):
            for owner in asked:
                position = owners[owner]
                if field.is_free(position):
                    got = planner.expansion_points(owner, position)
                    assert got == reference.expansion_points(owner, position)

        def check_round(absent=None):
            """A round of every owner, ``absent`` (and any owner standing
            in an obstacle) with no position: its points, floors asked and
            exhausted owners."""
            ids = sorted(owners)
            positions = [
                None
                if owner == absent or not field.is_free(owners[owner])
                else owners[owner]
                for owner in ids
            ]
            got = rounds.advertise(ids, positions)
            assert got[:3] == round_reference.advertise(ids, positions)[:3]

        check(sorted(owners))
        check_round()
        for _ in range(data.draw(st.integers(1, 15))):
            absent = None
            op = data.draw(
                st.sampled_from(
                    ["register", "reregister", "unregister", "replace", "promote",
                     "hand_over", "add_obstacle", "remove_obstacle", "move",
                     "step", "absent"]
                )
            )
            if op == "register" or (
                op in ("reregister", "unregister", "replace") and not others
            ):
                registry.register(
                    next_id,
                    self._near_a_probe(planner, owners, data),
                    virtual=data.draw(st.booleans()),
                )
                others.add(next_id)
                next_id += 1
            elif op == "reregister":
                node_id = data.draw(st.sampled_from(sorted(others)))
                registry.register(node_id, self._near_a_probe(planner, owners, data))
            elif op == "unregister":
                node_id = data.draw(st.sampled_from(sorted(others | set(owners))))
                registry.unregister(node_id)
                others.discard(node_id)
            elif op == "replace":
                # Another record takes a record's point, before or after it
                # goes: a new id, or one that stood elsewhere.
                node_id = data.draw(st.sampled_from(sorted(others)))
                point = registry.record(node_id).position
                movers = sorted(others - {node_id})
                if movers and data.draw(st.booleans()):
                    successor = data.draw(st.sampled_from(movers))
                else:
                    successor = next_id
                    next_id += 1
                    others.add(successor)
                if data.draw(st.booleans()):
                    registry.register(successor, point)
                    registry.unregister(node_id)
                else:
                    registry.unregister(node_id)
                    registry.register(successor, point)
                others.discard(node_id)
            elif op == "promote":
                virtual = sorted(
                    r.node_id for r in registry.all_records() if r.virtual
                )
                if virtual:
                    node_id = data.draw(st.sampled_from(virtual))
                    point = (
                        owners[node_id]
                        if node_id in owners
                        else self._near_a_probe(planner, owners, data)
                    )
                    registry.promote_virtual(node_id, point)
            elif op == "hand_over":
                # A sensor arrives at a virtual owner's point: it is
                # registered there, takes over the answer, and the
                # place-holder goes.
                virtual = sorted(
                    owner
                    for owner in owners
                    if (record := registry.record(owner)) is not None
                    and record.virtual
                    and record.position == owners[owner]
                )
                if virtual:
                    owner = data.draw(st.sampled_from(virtual))
                    successor = next_id
                    next_id += 1
                    registry.register(successor, owners[owner])
                    planner.hand_over(owner, successor)
                    rounds.hand_over(owner, successor)
                    registry.unregister(owner)
                    owners[successor] = owners.pop(owner)
            elif op == "add_obstacle":
                corner = self._near_a_probe(planner, owners, data)
                size = data.draw(st.floats(2.0, 30.0))
                x = min(max(corner.x, 0.0), 300.0 - size)
                y = min(max(corner.y, 0.0), 300.0 - size)
                added.append(
                    field.add_obstacle(Obstacle.rectangle(x, y, x + size, y + size))
                )
            elif op == "remove_obstacle" and added:
                field.remove_obstacle(added.pop())
            elif op == "move":
                owner = data.draw(st.sampled_from(sorted(owners)))
                owners[owner] = self._near_a_probe(planner, owners, data)
                registry.register(owner, owners[owner])
            elif op == "step":
                # The owner stands away from its record (or has none).
                owner = data.draw(st.sampled_from(sorted(owners)))
                owners[owner] = owners[owner] + Vec2(
                    data.draw(st.sampled_from([-7.5, 0.5, 20.0])), 0.0
                )
            elif op == "absent":
                absent = data.draw(st.sampled_from(sorted(owners)))
            # Some owners are asked after each step, the others only
            # later, with the changes routed to them meanwhile.
            check(data.draw(st.lists(st.sampled_from(sorted(owners)), unique=True)))
            if data.draw(st.booleans()):
                check_round(absent)
        check(sorted(owners))
        check_round()
