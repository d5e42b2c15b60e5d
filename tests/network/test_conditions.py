"""Tests for the network-condition model."""

from collections import Counter

import pytest

import repro.determinism as determinism
import repro.network.conditions as conditions
from repro.api import RunSpec, ScenarioSpec, canonical_json, execute_run
from repro.field import Field
from repro.geometry import Vec2
from repro.network import (
    MessageStats,
    NetworkSpec,
    NetworkModel,
    PERFECT_NETWORK,
    RETRY_LIMIT,
)
from repro.sim import SimulationConfig, World


class FakeWorld:
    """The minimal world surface the delivery hooks consult."""

    def __init__(self):
        self.period_index = 0
        self.population_version = 0
        self.stats = MessageStats()


def patch_draws(monkeypatch, draw):
    """Send every draw the network model can make to ``draw(seed, *keys)``:
    the one-shot :func:`derive_uniform` and the per-period prefix form
    :class:`UniformPrefix` the model draws through."""

    class Prefix:
        def __init__(self, seed, *prefix):
            self.head = (seed, *prefix)

        def draw(self, *keys):
            return draw(*self.head, *keys)

    monkeypatch.setattr(determinism, "derive_uniform", draw)
    monkeypatch.setattr(conditions, "UniformPrefix", Prefix)


def line_world(*xs, rc=10.0):
    """A world with one sensor at ``(x, 1)`` per ``xs`` and range ``rc``."""
    config = SimulationConfig(
        sensor_count=len(xs),
        communication_range=rc,
        sensing_range=5.0,
        duration=10.0,
        coverage_resolution=5.0,
        seed=1,
    )
    return World.create(
        config, Field(200.0, 200.0), initial_positions=[Vec2(x, 1.0) for x in xs]
    )


def move(world, sensor_id, x):
    world.sensor(sensor_id).motion.relocate(Vec2(x, 1.0), "test")


class TestNetworkSpec:
    def test_default_spec_is_structural_and_builds_perfect(self):
        spec = NetworkSpec()
        assert spec.is_structural()
        assert spec.build(seed=1) is PERFECT_NETWORK

    def test_degenerate_unreliable_spec_builds_perfect(self):
        spec = NetworkSpec(model="unreliable")
        assert spec.is_structural()
        assert spec.build(seed=1) is PERFECT_NETWORK

    def test_degraded_spec_builds_unreliable(self):
        spec = NetworkSpec(model="unreliable", loss=0.1, staleness=5)
        assert not spec.is_structural()
        net = spec.build(seed=9)
        assert net is not PERFECT_NETWORK
        assert net.seed == 9
        assert net.loss == 0.1
        assert net.staleness == 5

    def test_staleness_of_one_is_still_structural(self):
        assert NetworkSpec(model="unreliable", staleness=1).is_structural()

    def test_round_trip(self):
        spec = NetworkSpec(model="unreliable", loss=0.05, staleness=4)
        assert NetworkSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_applies_defaults(self):
        assert NetworkSpec.from_dict({}) == NetworkSpec()
        assert NetworkSpec.from_dict({"model": "unreliable", "loss": 0.2}) == (
            NetworkSpec(model="unreliable", loss=0.2)
        )

    def test_from_dict_normalises_number_spellings(self):
        spec = NetworkSpec.from_dict(
            {"model": "unreliable", "loss": 0, "staleness": 5.0}
        )
        assert canonical_json(spec.to_dict()) == canonical_json(
            NetworkSpec(model="unreliable", loss=0.0, staleness=5).to_dict()
        )

    @pytest.mark.parametrize("key", ["latency", "retry_limit", "lossy"])
    def test_from_dict_rejects_unknown_keys(self, key):
        # A payload asking for a knob the model does not have must not
        # quietly run without it.
        with pytest.raises(TypeError, match=key):
            NetworkSpec.from_dict({"model": "unreliable", "loss": 0.1, key: 2})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "carrier-pigeon"},
            {"model": "unreliable", "loss": 1.0},
            {"model": "unreliable", "loss": -0.1},
            {"model": "unreliable", "staleness": -1},
            {"model": "unreliable", "staleness": 2.5},
            {"model": "perfect", "loss": 0.1},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"loss": 1.0}, {"loss": -0.1}, {"staleness": -1}]
    )
    def test_invalid_models_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkModel(seed=1, **kwargs)


class TestPerfectNetwork:
    def test_everything_is_a_pass_through(self):
        world = line_world(0.0, 5.0, 50.0)
        net = NetworkModel()
        assert net.neighbors(world) is world.neighbor_snapshot()
        assert net.neighbor_table(world) == world.neighbor_table()
        assert net.neighbors(world).rows([2, 0]) == {2: [], 0: [1]}
        assert net.exchange(world, ("x",), 5) == (True, 1)
        assert net.walk_hops(world, ("w",), 7) == 7
        assert world.stats.net_counts == {}

    def test_delivery_needs_no_world(self):
        # InvitationProtocol.run_round falls back to PERFECT_NETWORK when
        # it is given no world, and calls both hooks with world=None.
        assert PERFECT_NETWORK.exchange(None, ("x",), 3) == (True, 1)
        assert PERFECT_NETWORK.walk_hops(None, ("w",), 4) == 4
        assert PERFECT_NETWORK.walk_hops(None, ("w",), 0) == 0


class TestDegenerateUnreliable:
    def test_zero_knobs_behave_like_perfect(self):
        world = line_world(0.0, 5.0, 50.0)
        net = NetworkModel(seed=3)
        assert net.neighbor_table(world) == world.neighbor_table()
        assert net.neighbors(world).rows([1]) == world.neighbor_snapshot().rows([1])
        assert net.exchange(world, ("x",), 5) == (True, 1)
        assert net.walk_hops(world, ("w",), 7) == 7
        assert world.stats.net_counts == {}


class TestExchange:
    def test_deterministic_across_instances(self):
        outcomes = []
        for _ in range(2):
            world = FakeWorld()
            net = NetworkModel(seed=11, loss=0.3)
            outcomes.append(
                [net.exchange(world, ("msg", i), 2) for i in range(50)]
            )
        assert outcomes[0] == outcomes[1]

    def test_distinct_keys_and_periods_draw_independently(self):
        world = FakeWorld()
        net = NetworkModel(seed=11, loss=0.5)
        by_key = [net.exchange(world, ("msg", i))[1] for i in range(40)]
        world.period_index = 1
        by_period = [net.exchange(world, ("msg", i))[1] for i in range(40)]
        assert by_key != by_period
        assert len(set(by_key)) > 1

    def test_timeout_exhausts_budget_and_counts(self):
        world = FakeWorld()
        net = NetworkModel(seed=1, loss=0.95)
        # With 95% loss some key times out quickly; find one and check the
        # accounting of a full exhaustion.
        for i in range(100):
            probe = FakeWorld()
            delivered, attempts = net.exchange(probe, ("m", i), 3)
            if not delivered:
                assert RETRY_LIMIT == 3
                assert attempts == 4  # RETRY_LIMIT + 1
                assert probe.stats.net_counts["dropped"] == 4
                assert probe.stats.net_counts["timeouts"] == 1
                assert probe.stats.net_counts["retries"] == 3
                # Exponential backoff: 1 + 2 + 4 periods of accumulated delay.
                assert probe.stats.net_counts["delayed"] == 7
                break
        else:
            pytest.fail("no timeout observed at 95% loss")
        assert world.stats.net_counts == {}

    def test_success_after_retry_counts_retries_not_timeouts(self):
        net = NetworkModel(seed=5, loss=0.6)
        for i in range(200):
            world = FakeWorld()
            delivered, attempts = net.exchange(world, ("m", i))
            if delivered and attempts > 1:
                assert world.stats.net_counts["retries"] == attempts - 1
                assert world.stats.net_counts["dropped"] == attempts - 1
                assert "timeouts" not in world.stats.net_counts
                break
        else:
            pytest.fail("no retried success observed at 60% loss")

    def test_a_model_that_drew_copies_and_pickles(self):
        """The per-period draw prefixes rebuild their hash state, so a
        lossy model copies (a world snapshot) and pickles mid-run, and the
        copies draw what the original draws."""
        import copy
        import pickle

        net = NetworkModel(seed=3, loss=0.4)
        world = FakeWorld()
        world.period_index = 9
        net.exchange(world, ("m", 0), 2)
        net.walk_hops(world, ("w", 0), 5)
        clones = [copy.deepcopy(net), pickle.loads(pickle.dumps(net))]
        for i in range(1, 30):
            expected = net.exchange(FakeWorld(), ("m", i), 2)
            hops = net.walk_hops(world, ("w", i), 5)
            for clone in clones:
                assert clone.exchange(FakeWorld(), ("m", i), 2) == expected
                assert clone.walk_hops(world, ("w", i), 5) == hops

    def test_wider_critical_path_fails_more(self):
        net = NetworkModel(seed=2, loss=0.2)
        narrow = sum(
            net.exchange(FakeWorld(), ("n", i), 1)[0] for i in range(300)
        )
        wide = sum(
            net.exchange(FakeWorld(), ("w", i), 10)[0] for i in range(300)
        )
        assert wide < narrow


class TestWalkHops:
    def test_deterministic_and_bounded(self):
        net = NetworkModel(seed=7, loss=0.3)
        world = FakeWorld()
        hops = [net.walk_hops(world, ("walk", i), 8) for i in range(50)]
        world2 = FakeWorld()
        assert hops == [net.walk_hops(world2, ("walk", i), 8) for i in range(50)]
        assert all(0 <= h <= 8 for h in hops)
        assert any(h < 8 for h in hops)

    def test_truncated_walk_records_one_drop(self):
        net = NetworkModel(seed=7, loss=0.9)
        world = FakeWorld()
        hops = net.walk_hops(world, ("walk", 0), 8)
        if hops < 8:
            assert world.stats.net_counts["dropped"] == 1


class TestGeometricDraw:
    """One draw per delivery, read off the geometric distribution."""

    KEYS = 20_000

    def test_exchange_outcomes_match_the_geometric_law(self):
        loss, critical = 0.3, 2
        net = NetworkModel(seed=4, loss=loss)
        world = FakeWorld()
        outcomes = Counter(
            net.exchange(world, ("m", i), critical) for i in range(self.KEYS)
        )
        success = (1.0 - loss) ** critical
        budget = RETRY_LIMIT + 1
        expected = {
            (True, a): (1.0 - success) ** (a - 1) * success
            for a in range(1, budget + 1)
        }
        expected[False, budget] = (1.0 - success) ** budget
        assert set(outcomes) <= set(expected)
        for outcome, probability in expected.items():
            assert abs(outcomes[outcome] / self.KEYS - probability) < 0.01
        # The per-attempt accounting: every failed attempt is a drop, every
        # resend a retry after a backoff of 1, 2, 4, ... periods.
        counts = world.stats.net_counts
        timeouts = outcomes[False, budget]
        assert counts["timeouts"] == timeouts
        assert counts["dropped"] == timeouts * budget + sum(
            n * (a - 1) for (ok, a), n in outcomes.items() if ok
        )
        assert counts["retries"] == sum(n * (a - 1) for (_, a), n in outcomes.items())
        assert counts["delayed"] == sum(
            n * (2 ** (a - 1) - 1) for (_, a), n in outcomes.items()
        )

    def test_walk_hops_match_the_geometric_law(self):
        loss, ttl = 0.2, 6
        net = NetworkModel(seed=4, loss=loss)
        world = FakeWorld()
        hops = Counter(
            net.walk_hops(world, ("walk", i), ttl) for i in range(self.KEYS)
        )
        expected = {h: (1.0 - loss) ** h * loss for h in range(ttl)}
        expected[ttl] = (1.0 - loss) ** ttl
        assert set(hops) <= set(expected)
        for h, probability in expected.items():
            assert abs(hops[h] / self.KEYS - probability) < 0.01
        # Only a truncated walk records its one dropped hop.
        assert world.stats.net_counts["dropped"] == self.KEYS - hops[ttl]

    def test_underflowing_success_times_out(self):
        net = NetworkModel(seed=1, loss=0.9)
        assert (1.0 - 0.9) ** 400 == 0.0
        world = FakeWorld()
        assert net.exchange(world, ("m",), 400) == (False, RETRY_LIMIT + 1)
        assert world.stats.net_counts["timeouts"] == 1
        assert world.stats.net_counts["dropped"] == RETRY_LIMIT + 1

    def test_loss_below_float_precision_always_delivers(self):
        net = NetworkModel(seed=1, loss=1e-17)
        assert (1.0 - 1e-17) == 1.0
        world = FakeWorld()
        assert net.exchange(world, ("m",), 3) == (True, 1)
        assert world.stats.net_counts == {}

    def test_one_draw_per_delivery(self, monkeypatch):
        keys = []

        def counting(seed, *key):
            keys.append(key)
            return 0.5

        patch_draws(monkeypatch, counting)
        net = NetworkModel(seed=1, loss=0.5)
        world = FakeWorld()
        world.period_index = 7
        net.exchange(world, ("m", 1), 3)
        net.walk_hops(world, ("w", 2), 9)
        assert keys == [(7, "exchange", "m", 1), (7, "walk", "w", 2)]


def _small_run(scheme, network):
    scenario = ScenarioSpec(
        field_size=300.0,
        sensor_count=12,
        duration=20.0,
        coverage_resolution=15.0,
        seed=2,
    )
    return execute_run(RunSpec(scenario, scheme, network=network))


@pytest.mark.parametrize("scheme", ["CPVF", "FLOOR"])
@pytest.mark.parametrize(
    "network",
    [None, NetworkSpec("unreliable", staleness=5)],
    ids=["perfect", "loss-free-unreliable"],
)
def test_loss_free_runs_never_draw(monkeypatch, scheme, network):
    def no_draw(*args):
        raise AssertionError("a loss-free delivery drew a number")

    patch_draws(monkeypatch, no_draw)
    _small_run(scheme, network)


@pytest.mark.parametrize("scheme", ["CPVF", "FLOOR"])
def test_lossy_runs_draw(monkeypatch, scheme):
    calls = []

    def counting(*args):
        calls.append(args)
        return 0.5

    patch_draws(monkeypatch, counting)
    _small_run(scheme, NetworkSpec("unreliable", loss=0.1))
    assert calls


class TestStaleness:
    def test_live_when_staleness_at_most_one(self):
        world = line_world(0.0, 5.0, 50.0)
        net = NetworkModel(seed=1, staleness=1)
        assert net.neighbor_table(world) == world.neighbor_table()
        move(world, 2, 8.0)
        assert net.neighbors(world).rows([2]) == {2: [0, 1]}
        assert world.stats.net_counts == {}

    def test_table_served_stale_between_refreshes(self):
        world = line_world(0.0, 5.0, 50.0)
        net = NetworkModel(seed=1, staleness=5)
        assert net.neighbor_table(world) == {0: [1], 1: [0], 2: []}
        # The world moves on; the served table does not until the boundary.
        move(world, 2, 8.0)
        world.period_index = 4
        assert net.neighbor_table(world) == {0: [1], 1: [0], 2: []}
        assert world.stats.net_counts["stale_reads"] == 1
        world.period_index = 5
        assert net.neighbor_table(world) == {0: [1, 2], 1: [0, 2], 2: [0, 1]}

    def test_stale_rows_are_the_capture_time_rows(self):
        world = line_world(0.0, 5.0, 50.0)
        net = NetworkModel(seed=1, staleness=5)
        captured = net.neighbors(world)
        move(world, 2, 8.0)
        move(world, 0, 30.0)
        world.period_index = 3
        assert world.neighbor_snapshot().rows([2, 0]) == {2: [1], 0: []}
        # Rows are computed when read, from the positions captured at the
        # boundary.
        assert net.neighbors(world).rows([2, 0]) == {2: [], 0: [1]}
        assert net.neighbors(world) is captured
        assert world.stats.net_counts["stale_reads"] == 2

    def test_row_reads_count_stale_reads_like_table_reads(self):
        counts = []
        for read in (
            lambda net, world: net.neighbor_table(world),
            lambda net, world: net.neighbors(world).rows([0]),
        ):
            world = line_world(0.0, 5.0)
            net = NetworkModel(seed=1, staleness=3)
            for period in range(7):
                world.period_index = period
                move(world, 1, 5.0 + period)
                read(net, world)
                read(net, world)
            counts.append(world.stats.net_counts["stale_reads"])
        # 14 reads, three of them refreshes (periods 0, 3 and 6).
        assert counts == [11, 11]

    def test_population_change_forces_refresh(self):
        world = line_world(0.0, 5.0)
        net = NetworkModel(seed=1, staleness=10)
        assert net.neighbor_table(world) == {0: [1], 1: [0]}
        world.remove_sensor(1)
        assert net.neighbor_table(world) == {0: []}
        assert net.neighbors(world).rows([0, 1]) == {0: []}

    def test_every_reuse_between_refreshes_counts_one_stale_read(self):
        world = line_world(0.0, 12.0)
        net = NetworkModel(seed=1, staleness=3)
        for period in range(7):
            world.period_index = period
            # Out of range at every refresh (periods 0, 3 and 6), in range
            # live in between: the served rows never show the link.
            move(world, 1, 12.0 if period % 3 == 0 else 4.0)
            assert net.neighbors(world).rows([0]) == {0: []}
        assert world.stats.net_counts["stale_reads"] == 4
