"""CPVF's parent-change repair: LockTree/UnLockTree traffic of the kernel.

A connected sensor whose ladder admits no step under its current links
may change parent: it locks its subtree (LockTree / UnLockTree), then
scans the connected neighbours outside that subtree for one that admits
a step.  Pinned here: the end-state trajectories (golden fingerprints),
the per-period lock traffic (golden traces), balanced lock/unlock waves,
connectivity never lost, and the repair's telemetry.
"""

import hashlib

import pytest

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
    """Digest of every sensor position (exact float repr) and every
    message-type count, plus the coverage and per-type counts."""
    positions = ";".join(
        f"{s.position.x!r},{s.position.y!r}" for s in world.sensors
    )
    counts = sorted(
        (mt.name, c) for mt, c in world.routing.stats.counts.items()
    )
    digest = hashlib.sha256((positions + repr(counts)).encode()).hexdigest()
    return digest[:16], world.coverage(), dict(counts)


class TestTrajectorySnapshot:
    """Golden end states of CPVF on the smoke scenario, position for
    position and message for message."""

    @pytest.mark.parametrize(
        "seed, golden",
        [
            (1, ("0c83fa381218a78c", 0.3625, 344)),
            (3, ("24f99356e5ff52ca", 0.37, 360)),
            (7, ("840b043a8d574992", 0.3325, 344)),
        ],
    )
    def test_bit_identical_without_parent_changes(self, seed, golden):
        """Re-parenting disabled, 8 periods: the end state is
        bit-identical to the golden."""
        world, scheme = _cpvf_world(seed, allow_parent_change=False)
        for _ in range(8):
            scheme.step(world)
        digest, coverage, counts = _fingerprint(world)
        assert (digest, coverage, counts["NEIGHBOR_STATE"]) == golden
        assert "LOCK_TREE" not in counts

    @pytest.mark.parametrize(
        "seed, golden",
        [
            (3, ("6409dffcecb219f5", 0.3975, 65)),
            (5, ("8b363c1df222a091", 0.4325, 25)),
        ],
    )
    def test_bit_identical_with_parent_changes(self, seed, golden):
        """Full dynamics, 12 periods: moves and parent-change handshakes
        land on the golden end state and lock charge."""
        world, scheme = _cpvf_world(seed)
        for _ in range(12):
            scheme.step(world)
        digest, coverage, counts = _fingerprint(world)
        assert (digest, coverage, counts["LOCK_TREE"]) == golden
        assert counts["UNLOCK_TREE"] == counts["LOCK_TREE"]


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
