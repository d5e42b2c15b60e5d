"""Integration-style tests for the FLOOR scheme."""

import pytest

from repro.core import FloorScheme
from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.obs import Telemetry
from repro.sensors import SensorState
from repro.sim import SimulationEngine


def run_floor(rc=60.0, rs=40.0, with_obstacles=False, seed=1, **scheme_kwargs):
    world = make_scenario(
        SMOKE_SCALE,
        communication_range=rc,
        sensing_range=rs,
        seed=seed,
        layout="two-obstacle" if with_obstacles else "obstacle-free",
    ).build_world()
    scheme = FloorScheme(**scheme_kwargs)
    engine = SimulationEngine(world, scheme, trace_every=20)
    return engine.run(), world, scheme


class TestFloorEndToEnd:
    def test_coverage_improves_over_initial_layout(self):
        world = make_scenario(SMOKE_SCALE, seed=2).build_world()
        initial_coverage = world.coverage()
        result = SimulationEngine(world, FloorScheme()).run()
        assert result.final_coverage > initial_coverage

    def test_all_sensors_end_in_a_floor_state(self):
        result, world, scheme = run_floor(seed=3)
        allowed = {
            SensorState.FIXED,
            SensorState.MOVABLE,
            SensorState.RELOCATING,
            SensorState.CONNECTED,
        }
        connected_states = {s.state for s in world.sensors if s.is_connected()}
        assert connected_states <= allowed

    def test_fixed_sensors_are_registered(self, ):
        result, world, scheme = run_floor(seed=4)
        registry = scheme._registry
        for sensor in world.sensors:
            if sensor.state is SensorState.FIXED:
                assert registry.floor_of(sensor.sensor_id) is not None

    def test_sensors_stay_in_free_space_with_obstacles(self):
        result, world, _ = run_floor(with_obstacles=True, seed=5)
        for sensor in world.sensors:
            assert world.field.is_free(sensor.position)

    def test_messages_are_recorded(self):
        result, _, _ = run_floor(seed=6)
        assert result.total_messages > 0

    def test_larger_ttl_generates_more_messages(self):
        low, _, _ = run_floor(seed=7, invitation_ttl=2)
        high, _, _ = run_floor(seed=7, invitation_ttl=12)
        assert high.total_messages > low.total_messages

    def test_moving_distance_below_field_diameter(self):
        result, world, _ = run_floor(seed=8)
        diameter = (world.field.width**2 + world.field.height**2) ** 0.5
        # No sensor should travel more than a few times the field diagonal.
        for sensor in world.sensors:
            assert sensor.moving_distance <= 3 * diameter

    def test_fixed_sensors_gravitate_to_floor_lines(self):
        result, world, scheme = run_floor(seed=9)
        floors = scheme._floors
        relocated = [
            s
            for s in world.sensors
            if s.state is SensorState.FIXED and s.moving_distance > 1.0
        ]
        if not relocated:
            pytest.skip("no sensor relocated in this draw")
        near_structure = sum(
            1
            for s in relocated
            if abs(s.position.y - floors.nearest_floor_line(s.position.y))
            <= world.config.sensing_range
        )
        assert near_structure == len(relocated)

    def test_convergence_is_reported_when_expansion_finishes(self):
        # With very few sensors the searchers run out of movable sensors but
        # keep advertising, so convergence is not guaranteed; this just
        # checks the has_converged contract is consistent.
        result, world, scheme = run_floor(seed=10)
        if result.converged_at is not None:
            assert not scheme._relocations

    def test_small_rc_still_produces_positive_coverage(self):
        result, _, _ = run_floor(rc=20.0, rs=40.0, seed=11)
        assert result.final_coverage > 0.05


class TestSeedFallback:
    def test_expansion_always_has_at_least_one_fixed_seed(self):
        """Even when every sensor volunteers as movable (dense cluster), the
        scheme must keep one anchored sensor so expansion can start."""
        world = make_scenario(SMOKE_SCALE, seed=7).build_world()
        scheme = FloorScheme()
        scheme.initialize(world)
        for period in range(10):
            world.period_index = period
            scheme.step(world)
            if scheme._phase == 3:
                break
        assert scheme._phase == 3
        fixed = [s for s in world.sensors if s.state is SensorState.FIXED]
        assert fixed, "phase 2 must leave at least one fixed sensor as expansion seed"

    def test_expansion_makes_progress_from_dense_cluster(self):
        world = make_scenario(SMOKE_SCALE, seed=7).build_world()
        initial = world.coverage()
        result = SimulationEngine(world, FloorScheme()).run()
        assert result.periods_executed > 5
        assert result.final_coverage > initial


class TestFloorBeatsCPVFWhenItShould:
    def test_floor_outperforms_cpvf_with_small_rc(self):
        """The paper's headline claim (Figs 3b vs 8b) at smoke scale."""
        from repro.core import CPVFScheme

        scenario = make_scenario(
            SMOKE_SCALE, communication_range=25.0, sensing_range=40.0, seed=12
        )
        world_floor = scenario.build_world()
        floor_result = SimulationEngine(world_floor, FloorScheme()).run()

        world_cpvf = scenario.build_world()
        cpvf_result = SimulationEngine(world_cpvf, CPVFScheme()).run()

        assert floor_result.final_coverage >= cpvf_result.final_coverage


class TestObstacleExitCorrection:
    """Regression: a sensor in BUG2 transit must never end a run inside an
    obstacle (ROADMAP repro: two-obstacle field at 400 m, n=60, rc=60,
    rs=40, seed=17, 120 s — sensors 44/54 used to finish in the interior
    of the "right" obstacle while RELOCATING)."""

    def test_relocating_sensors_exit_obstacles(self):
        from repro.field import two_obstacle_field
        from repro.sim import SimulationConfig, World

        config = SimulationConfig(
            sensor_count=60,
            communication_range=60.0,
            sensing_range=40.0,
            duration=120.0,
            seed=17,
        )
        world = World.create(config, two_obstacle_field(400.0))
        SimulationEngine(world, FloorScheme()).run()
        stuck = [
            s.sensor_id for s in world.sensors if not world.field.is_free(s.position)
        ]
        assert stuck == []

    def test_connection_transit_exits_obstacles(self):
        """Phase-1 connection walks cut maze-wall corners the same way
        (found by the bench-scale maze-hotspot invariant sweep: sensors
        20/33 used to finish MOVING_TO_CONNECT inside a wall)."""
        from repro.experiments.common import BENCH_SCALE
        from repro.scenarios import DEFAULT_SUITE

        spec = DEFAULT_SUITE.get("maze-hotspot").spec(BENCH_SCALE)
        world = spec.build_world()
        SimulationEngine(world, FloorScheme()).run()
        stuck = [
            s.sensor_id for s in world.sensors if not world.field.is_free(s.position)
        ]
        assert stuck == []


class TestFloorTelemetry:
    def test_expansion_sub_spans_and_reuse_counter(self):
        """The expansion round reports its two steps as sub-spans and the
        planner's memo hits as ``floor.expansion_reused``; telemetry
        observes, never perturbs: the untraced run ends in the same
        state."""
        from benchmarks.pins import world_digest
        from repro.obs import Telemetry

        def run(telemetry):
            world = make_scenario(
                SMOKE_SCALE, seed=5, layout="two-obstacle"
            ).build_world()
            result = SimulationEngine(
                world, FloorScheme(), telemetry=telemetry
            ).run()
            return world_digest(world, result.final_coverage), result

        plain_digest, _ = run(None)
        tel = Telemetry()
        traced_digest, result = run(tel)
        assert traced_digest == plain_digest
        summary = result.telemetry
        rounds = summary.phases["floor.expansion_round"]
        points = summary.phases["floor.expansion_points"]
        invitations = summary.phases["floor.invitations"]
        assert points.calls == rounds.calls
        assert 1 <= invitations.calls <= rounds.calls
        assert points.seconds + invitations.seconds <= rounds.seconds
        assert summary.counters["floor.expansion_reused"] > 0

    def test_reused_and_recomputed_add_up_to_the_calls(self, monkeypatch):
        """Every searcher a round asks is either reused or recomputed: a
        searcher no change reached serves its last answer without asking
        the planner, and a reused round asks it for none.  The counters,
        the per-part ones included, match the planner's own totals, and
        only recomputations probe the registry."""
        from repro.core.expansion import ExpansionPlanner
        from repro.obs import Telemetry

        calls = []
        asked = []
        reused_rounds = []
        original = ExpansionPlanner.expansion_points
        collect = FloorScheme._collect_expansion_points

        def counted(planner, owner_id, position):
            calls.append(owner_id)
            return original(planner, owner_id, position)

        def round_counted(scheme, world):
            with_position = sum(
                position is not None
                for position in scheme._searcher_positions(
                    world, sorted(scheme._active_searchers)
                )
            )
            was = (len(calls), world.telemetry.counter("floor.rounds_reused"))
            points = collect(scheme, world)
            asked.append(with_position)
            if world.telemetry.counter("floor.rounds_reused") != was[1]:
                reused_rounds.append(len(calls) - was[0])
            return points

        monkeypatch.setattr(ExpansionPlanner, "expansion_points", counted)
        monkeypatch.setattr(FloorScheme, "_collect_expansion_points", round_counted)
        world = make_scenario(SMOKE_SCALE, seed=5, layout="two-obstacle").build_world()
        scheme = FloorScheme()
        result = SimulationEngine(world, scheme, telemetry=Telemetry()).run()
        planner = scheme._expansion
        counters = result.telemetry.counters
        reused = counters["floor.expansion_reused"]
        recomputed = counters["floor.expansion_recomputed"]
        assert reused + recomputed == sum(asked) > len(calls) > recomputed
        assert len(reused_rounds) == counters["floor.rounds_reused"] > 0
        assert not any(reused_rounds), "a reused round asks the planner nothing"
        assert (
            counters["floor.rounds_searched"] + counters["floor.rounds_reused"]
            == len(asked)
        )
        assert counters["floor.expansion_checked"] == planner.checked > 0
        assert (reused, recomputed) == (planner.reused, planner.recomputed)
        assert counters["floor.coverage_queries"] == planner.coverage_queries
        assert planner.coverage_queries >= recomputed > 0
        neighbors = (
            counters["floor.iflg_neighbors_reused"],
            counters["floor.iflg_neighbors_computed"],
        )
        assert neighbors == (
            planner.iflg_neighbors_reused,
            planner.iflg_neighbors_computed,
        )
        assert min(neighbors) > 0
        parts = [
            counters[f"floor.expansion_recomputed.{kind}"]
            for kind in ("flg", "blg", "iflg")
        ]
        assert parts == planner.recomputed_parts
        assert (
            counters.get("floor.expansion_recomputed.field", 0)
            == planner.recomputed_field
        )
        # Every recomputation redoes at least one part, at most all three.
        assert recomputed <= sum(parts) <= 3 * recomputed
        assert max(parts) <= recomputed

    def test_rehome_failures_count_the_refused_starts(self, monkeypatch):
        """``floor.rehome_failures`` counts each relocation start that
        ``_rehome_children`` refuses, on the e2ebench paper-obstacle
        setting: bench scale, two obstacles, clustered start, 100 s."""
        from repro.experiments.common import BENCH_SCALE

        refused = []
        rehome = FloorScheme._rehome_children

        def watched(scheme, world, sensor):
            done = rehome(scheme, world, sensor)
            if not done:
                refused.append(sensor.sensor_id)
            return done

        monkeypatch.setattr(FloorScheme, "_rehome_children", watched)
        scenario = make_scenario(
            BENCH_SCALE, layout="two-obstacle", placement="clustered"
        ).replace(duration=100.0)
        result = SimulationEngine(
            scenario.build_world(), FloorScheme(), telemetry=Telemetry()
        ).run()
        counters = result.telemetry.counters
        assert counters["floor.rehome_failures"] == len(refused) > 0
        assert len(refused) < counters["floor.relocations_started"]


class TestRelocationLeavesTheTree:
    def test_relocating_sensor_is_detached_from_its_former_parent(self):
        """A sensor in transit to an expansion point is no tree member: it is
        absent from ``world.tree.parent`` and from its former parent's
        children (FLOOR re-homes its subtree before it leaves)."""
        world = make_scenario(SMOKE_SCALE, seed=7).build_world()
        scheme = FloorScheme()
        scheme.initialize(world)
        seen = 0
        for period in range(60):
            world.period_index = period
            before = dict(world.tree.parent)
            scheme.step(world)
            for sensor in world.sensors:
                sid = sensor.sensor_id
                if sensor.state is not SensorState.RELOCATING or sid not in before:
                    continue
                seen += 1
                assert sid not in world.tree.parent
                assert sid not in world.tree.children_of(before[sid])
        assert seen > 0, "no sensor started a relocation in this draw"


class TestNeighbourReads:
    def test_steady_state_builds_no_full_table(self):
        """Once every sensor is connected and phase 3 runs, FLOOR reads
        neighbour rows only (children a relocating sensor re-homes): on
        the perfect network no period builds the whole table."""
        world = make_scenario(SMOKE_SCALE, seed=3, layout="two-obstacle").build_world()
        scheme = FloorScheme()
        tel = Telemetry()
        world.telemetry = tel
        scheme.initialize(world)
        steady = None
        for period in range(world.config.max_periods):
            world.period_index = period
            scheme.step(world)
            if steady is None and scheme._phase == 3 and all(
                s.is_connected() for s in world.sensors
            ):
                steady = (
                    tel.counter("neighbors.table_builds"),
                    tel.counter("neighbors.rows_read"),
                )
        assert steady is not None, "the run never reached a connected phase 3"
        assert tel.counter("neighbors.table_builds") == steady[0]
        assert tel.counter("neighbors.rows_read") > steady[1]

    def test_planner_memo_holds_only_active_searchers(self):
        """A searcher FLOOR drops (exhausted, a virtual node removed on
        arrival, a failure) leaves the planner's memo with it."""
        world = make_scenario(SMOKE_SCALE, seed=3, layout="two-obstacle").build_world()
        scheme = FloorScheme()
        scheme.initialize(world)
        dropped = 0
        for period in range(world.config.max_periods):
            world.period_index = period
            searchers = set(scheme._active_searchers)
            scheme.step(world)
            dropped += len(searchers - scheme._active_searchers)
            assert set(scheme._expansion._memo) <= scheme._active_searchers
        assert dropped > 0


class TestDisplacedFixedSensors:
    def test_a_fixed_sensor_pushed_out_by_a_new_obstacle_reregisters(self):
        """The door-slam wall swallows fixed sensor 4 (bench scale, seed
        2); the injector pushes it out, and FLOOR moves its registry
        record with it and sends one location update up the tree."""
        from repro.experiments.common import BENCH_SCALE
        from repro.experiments.lifecycle import lifecycle_events
        from repro.network import MessageType

        def updates(world):
            return world.stats.by_type().get(MessageType.LOCATION_UPDATE, 0)

        class Probe(FloorScheme):
            def on_world_changed(self, world, change):
                before = updates(world)
                super().on_world_changed(world, change)
                if not change.obstacles_changed:
                    return
                fixed = [
                    s.sensor_id
                    for s in world.sensors
                    if s.state is SensorState.FIXED
                ]
                records = {
                    r.node_id: r.position
                    for r in self._registry.all_records()
                    if not r.virtual
                }
                self.checks.append(
                    (
                        change.kind,
                        change.displaced_ids,
                        {sid: records.get(sid) for sid in fixed},
                        {sid: world.sensor(sid).position for sid in fixed},
                        updates(world) - before,
                        world.tree.depth_of(4) if 4 in world.tree else None,
                    )
                )

        scenario = make_scenario(
            BENCH_SCALE, seed=2, events=lifecycle_events("door-slam", BENCH_SCALE)
        )
        world = scenario.build_world()
        scheme = Probe()
        scheme.checks = []
        SimulationEngine(world, scheme, trace_every=None, events=scenario.events).run()
        (kind, displaced, records, positions, sent, depth), cleared = scheme.checks
        assert kind == "obstacle" and 4 in displaced
        assert records == positions
        assert all(world.field.is_free(p) for p in positions.values())
        assert sent == depth > 0
        assert cleared[0] == "clear-obstacle" and cleared[1] == ()
