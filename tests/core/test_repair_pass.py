"""CPVF's parent-change repair: LockTree/UnLockTree traffic of the kernel.

A connected sensor whose ladder admits no step under its current links
may change parent: it locks its subtree (LockTree / UnLockTree), then
scans the connected neighbours outside that subtree for one that admits
a step.  Pinned here: the end-state trajectories (golden fingerprints),
the per-period lock traffic (golden traces), balanced lock/unlock waves,
connectivity never lost, and the repair's telemetry.
"""

import pytest

from benchmarks.pins import world_digest
from repro.core import CPVFScheme
from repro.experiments.common import SMOKE_SCALE, make_scenario
from repro.network import MessageType
from repro.obs import Telemetry

LOCK_TYPES = (MessageType.LOCK_TREE, MessageType.UNLOCK_TREE)


def _cpvf_world(seed, **params):
    world = make_scenario(SMOKE_SCALE, seed=seed).build_world()
    scheme = CPVFScheme(**params)
    scheme.initialize(world)
    return world, scheme


def _fingerprint(world):
    return world_digest(world, world.coverage())


class TestTrajectorySnapshot:
    """Golden end states of CPVF on the smoke scenario, position for
    position and message for message."""

    @pytest.mark.parametrize(
        "seed, golden",
        [
            (1, "488907a9bbe73ad1d98208d6b38e77e5e3a76ae7b0de0dba0cc6d31afc6107f2"),
            (3, "25b84d9f46ae72cc4383a443eab7217d4fb67f8654e84179fb472591fe1090d2"),
            (7, "468fbe797d8af48f271aed8cf7ff85357b393e5fabde494f5f74d3b5a640757e"),
        ],
        ids=["1-golden0", "3-golden1", "7-golden2"],
    )
    def test_bit_identical_without_parent_changes(self, seed, golden):
        """Re-parenting disabled, 8 periods: the end state is
        bit-identical to the golden."""
        world, scheme = _cpvf_world(seed, allow_parent_change=False)
        for _ in range(8):
            scheme.step(world)
        assert _fingerprint(world) == golden
        assert MessageType.LOCK_TREE not in world.routing.stats.counts

    @pytest.mark.parametrize(
        "seed, golden",
        [
            (3, "54ac2f1982ab92f2de02bbeee8fcd8df5a7eaf422bb0964a80d3939fa506eb66"),
            (5, "2c666e9b9c4a823870b0336a50aa930b46cf8d13bc3f13048e155e0d646b32c6"),
        ],
        ids=["3-golden0", "5-golden1"],
    )
    def test_bit_identical_with_parent_changes(self, seed, golden):
        """Full dynamics, 12 periods: moves and parent-change handshakes
        land on the golden end state and lock charge."""
        world, scheme = _cpvf_world(seed)
        for _ in range(12):
            scheme.step(world)
        assert _fingerprint(world) == golden
        counts = world.routing.stats.counts
        assert counts[MessageType.UNLOCK_TREE] == counts[MessageType.LOCK_TREE]


class TestLockHandshakeSnapshot:
    #: Golden per-period LockTree (== UnLockTree) transmission counts of
    #: CPVF on the smoke scenario.
    GOLDEN = {
        3: [0, 6, 1, 22, 16, 0, 12, 0],
        5: [0, 3, 0, 15, 6, 0, 1, 0],
    }

    @pytest.mark.parametrize("seed", [3, 5])
    def test_per_period_lock_counts_snapshot(self, seed):
        """The per-period LockTree/UnLockTree charge matches the committed
        golden trace, and every period's handshake is balanced (each lock
        wave has its unlock wave)."""
        world, scheme = _cpvf_world(seed)
        trace = []
        for period in range(8):
            before = {
                mt: world.routing.stats.counts.get(mt, 0) for mt in LOCK_TYPES
            }
            scheme.step(world)
            lock, unlock = (
                world.routing.stats.counts.get(mt, 0) - before[mt]
                for mt in LOCK_TYPES
            )
            assert lock == unlock, f"period {period}"
            trace.append(lock)
        assert trace == self.GOLDEN[seed]


class TestRepairInvariants:
    @pytest.mark.parametrize("seed", [3, 5])
    def test_no_lock_traffic_without_parent_changes(self, seed):
        """With re-parenting disabled no LockTree/UnLockTree wave is ever
        charged and the tree keeps every parent it had."""
        world, scheme = _cpvf_world(seed, allow_parent_change=False)
        for _ in range(8):
            parents = dict(world.tree.parent)
            scheme.step(world)
            for sid, parent in parents.items():
                assert world.tree.parent.get(sid) == parent
        assert all(
            world.routing.stats.counts.get(mt, 0) == 0 for mt in LOCK_TYPES
        )

    def test_connectivity_never_lost(self):
        """Moves and parent changes preserve the connected component:
        nobody already connected is ever stranded."""
        world, scheme = _cpvf_world(3)
        component = world.connected_component_of()
        for _ in range(10):
            scheme.step(world)
            now = world.connected_component_of()
            assert component <= now, "a connected sensor dropped out"
            component = now

    def test_telemetry_spans_and_counters(self):
        """Force evaluation reports under cpvf.forces once per period;
        every parent-change attempt runs under one cpvf.repair span and
        counts one cpvf.repair_attempts, of which cpvf.parent_changes
        succeed."""
        world = make_scenario(SMOKE_SCALE, seed=3).build_world()
        tel = Telemetry()
        world.telemetry = tel
        scheme = CPVFScheme()
        scheme.initialize(world)
        for _ in range(8):
            scheme.step(world)
        summary = tel.summary()
        assert summary.phases["cpvf.forces"].calls == 8
        attempts = summary.counters.get("cpvf.repair_attempts", 0)
        assert attempts >= 1
        assert summary.phases["cpvf.repair"].calls == attempts
        changes = summary.counters.get("cpvf.parent_changes", 0)
        assert 1 <= changes <= attempts
        # Telemetry observes, never perturbs: the untraced run ends in
        # the same state.
        plain, plain_scheme = _cpvf_world(3)
        for _ in range(8):
            plain_scheme.step(plain)
        assert _fingerprint(plain) == _fingerprint(world)
