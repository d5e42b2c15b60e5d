"""FLOOR's churn period searches again only what changed, exactly.

The production planner serves each searcher no change reached from its
memo, recomputes only the parts an obstacle or registry change can
reach, and hands a virtual searcher's answer to the sensor that arrives
in its place.
:class:`~tests.oracles.ReferenceFloorScheme` searches every part of every
searcher in every round on the ``Vec2`` reference planner.  On obstacle
timelines, under the perfect and a lossy network, both must advertise the
same expansion points and send the same messages in every period.  The
round-key tests change one input of a round at a time.
"""

import pytest

from repro.api import NetworkSpec
from repro.core import FloorScheme
from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.experiments.lifecycle import lifecycle_events
from repro.field import Obstacle
from repro.geometry import Vec2
from repro.obs import Telemetry
from repro.sensors import SensorState
from repro.sim import FaultInjector, SimulationEngine, obstacle_appear, obstacle_clear
from tests.oracles import ReferenceFloorScheme


class _Logged:
    """Logs each round's advertised expansion points, every searcher's
    whole answer and the message counters."""

    def initialize(self, world):
        super().initialize(world)
        self.log = []

    def _collect_expansion_points(self, world):
        points = super()._collect_expansion_points(world)
        self.log.append(
            (
                world.period_index,
                list(points),
                self._whole_answers(),
                world.stats.to_counters(),
            )
        )
        return points


class LoggedFloor(_Logged, FloorScheme):
    def _whole_answers(self):
        return {
            sid: list(answer.points) for sid, answer in self._expansion._memo.items()
        }


class LoggedReference(_Logged, ReferenceFloorScheme):
    def _whole_answers(self):
        return dict(self._expansion.answers)


def _obstacle_timeline(layout, seed):
    """Mid-run obstacle changes on a layout: a block appears, one of the
    layout's own obstacles goes, then the block goes too."""
    scenario = make_scenario(SMOKE_SCALE, seed=seed, layout=layout)
    own = len(scenario.build_field().obstacles)
    size = SMOKE_SCALE.field_size
    events = (
        obstacle_appear(28, 0.45 * size, 0.1 * size, 0.52 * size, 0.7 * size),
        obstacle_clear(40, 0),
        obstacle_clear(55, own - 1),
    )
    return make_scenario(SMOKE_SCALE, seed=seed, layout=layout, events=events)


def _script_timeline(scripts, seed):
    events = ()
    for script in scripts:
        events += lifecycle_events(script, SMOKE_SCALE)
    return make_scenario(SMOKE_SCALE, seed=seed, events=events)


SCENARIOS = {
    "door-slam": lambda: _script_timeline(("door-slam",), 3),
    "lifecycle": lambda: _script_timeline(
        ("door-slam", "interior-cascade", "reinforcements"), 4
    ),
    "rooms": lambda: _obstacle_timeline("rooms", 5),
    "clutter": lambda: _obstacle_timeline("clutter", 6),
}
NETWORKS = {
    "perfect": None,
    "lossy": NetworkSpec("unreliable", loss=0.1, staleness=5),
}


def _run(scheme, scenario, network, telemetry=None):
    world = scenario.build_world()
    if network is not None:
        world.network = network.build(scenario.seed)
    engine = SimulationEngine(
        world, scheme, trace_every=None, events=scenario.events,
        telemetry=telemetry,
    )
    engine.run()
    return world


@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_round_equals_a_full_search(name, network):
    scenario = SCENARIOS[name]()
    production = LoggedFloor()
    telemetry = Telemetry()
    world = _run(production, scenario, NETWORKS[network], telemetry)
    reference = LoggedReference()
    reference_world = _run(reference, scenario, NETWORKS[network])
    assert len(production.log) == len(reference.log) > 20
    for got, want in zip(production.log, reference.log):
        assert got == want
    assert world.stats.to_counters() == reference_world.stats.to_counters()
    assert [s.position for s in world.sensors] == [
        s.position for s in reference_world.sensors
    ]
    counters = telemetry.summary().counters
    # The shortcuts were taken.
    assert counters["floor.rounds_reused"] > 0
    assert counters["floor.expansion_reused"] > 0
    if name != "lifecycle" or network == "perfect":
        assert counters["floor.expansion_recomputed.field"] > 0


# ----------------------------------------------------------------------
# The round key: each input alone makes the next round search
# ----------------------------------------------------------------------
class TestRoundKey:
    def _setup(self):
        """A FLOOR world in phase 3 with searchers, one round just run."""
        scenario = make_scenario(SMOKE_SCALE, seed=2)
        world = scenario.build_world()
        scheme = FloorScheme()
        scheme.initialize(world)
        for period in range(40):
            world.period_index = period
            scheme.step(world)
            if scheme._phase == 3 and len(scheme._active_searchers) >= 3:
                break
        assert scheme._phase == 3 and scheme._active_searchers
        world.telemetry = Telemetry()
        scheme._collect_expansion_points(world)
        return world, scheme

    @staticmethod
    def _searched(world, scheme):
        """Whether the next round searches; its points equal a fresh
        round's either way."""
        tel = world.telemetry
        before = tel.counter("floor.rounds_searched")
        points = scheme._collect_expansion_points(world)
        searched = tel.counter("floor.rounds_searched") != before
        for searcher_id in list(scheme._expansion._memo):
            scheme._expansion.forget(searcher_id)
        assert points == scheme._collect_expansion_points(world)
        return searched

    @staticmethod
    def _fixed_searcher(world, scheme):
        return next(
            sid
            for sid in sorted(scheme._active_searchers)
            if sid < 1_000_000 and world.sensor(sid).state is SensorState.FIXED
        )

    def test_nothing_changed_reuses_the_round(self):
        world, scheme = self._setup()
        assert not self._searched(world, scheme)

    def test_a_registry_change_within_a_searchers_reach_searches(self):
        world, scheme = self._setup()
        near = world.sensor(self._fixed_searcher(world, scheme)).position
        scheme._registry.register(999_999, near + Vec2(1.0, 0.0), virtual=True)
        assert self._searched(world, scheme)

    def test_a_registry_change_out_of_every_reach_reuses_the_round(self):
        world, scheme = self._setup()
        size = world.field.width
        scheme._registry.register(999_999, Vec2(size, size), virtual=True)
        assert not scheme._expansion.reached()
        assert not self._searched(world, scheme)

    def test_a_field_change_within_a_searchers_reach_searches(self):
        world, scheme = self._setup()
        at = world.sensor(self._fixed_searcher(world, scheme)).position
        world.field.add_obstacle(
            Obstacle.rectangle(at.x + 5.0, at.y + 5.0, at.x + 8.0, at.y + 8.0)
        )
        assert self._searched(world, scheme)

    def test_a_field_change_out_of_every_reach_reuses_the_round(self):
        world, scheme = self._setup()
        world.field.add_obstacle(Obstacle.rectangle(280, 280, 290, 290))
        assert not scheme._expansion.reached()
        assert not self._searched(world, scheme)

    def test_a_new_searcher_searches(self):
        world, scheme = self._setup()
        newcomer = next(
            s.sensor_id
            for s in world.sensors
            if s.sensor_id not in scheme._active_searchers
        )
        world.sensor(newcomer).state = SensorState.FIXED
        scheme._active_searchers.add(newcomer)
        assert self._searched(world, scheme)

    def test_a_moved_searcher_searches(self):
        world, scheme = self._setup()
        sensor = world.sensor(self._fixed_searcher(world, scheme))
        sensor.motion.relocate(
            sensor.position + Vec2(0.5, 0.0), "test"
        )
        assert self._searched(world, scheme)

    def test_a_searcher_the_lifecycle_displaces_searches(self):
        # A wall appears over a fixed searcher: the injector pushes it
        # out, FLOOR re-registers it, and the next round asks it again.
        world, scheme = self._setup()
        searcher = self._fixed_searcher(world, scheme)
        at = world.sensor(searcher).position
        injector = FaultInjector(
            world,
            scheme,
            [obstacle_appear(0, at.x - 2.0, at.y - 2.0, at.x + 3.0, at.y + 3.0)],
        )
        injector.fire(0)
        moved = world.sensor(searcher).position
        assert moved != at and world.field.is_free(moved)
        assert scheme._registry.record(searcher).position == moved
        assert searcher in scheme._expansion.reached()
        assert self._searched(world, scheme)

    def test_a_searcher_no_longer_fixed_leaves_without_a_search(self):
        world, scheme = self._setup()
        searcher = self._fixed_searcher(world, scheme)
        world.sensor(searcher).state = SensorState.MOVABLE
        assert not self._searched(world, scheme)
        assert searcher not in scheme._active_searchers
