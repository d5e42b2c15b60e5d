"""The batched CPVF repair pass: one serialized walk per blocked sensor.

Sensors the color-class batch could not move (and connected sensors
outside the colored tree) are re-laddered one at a time against the
settled positions and, when still blocked, take the paper's
LockTree/UnLockTree parent-change handshake.  Pinned here: the
end-state trajectories (golden fingerprints), the per-period lock
traffic (golden traces), balanced lock/unlock waves, connectivity never
lost, and the repair pass's telemetry.
"""

import hashlib

import pytest

from repro.core import CPVFScheme
from repro.experiments.common import SMOKE_SCALE, make_config, make_world
from repro.network import MessageType
from repro.obs import Telemetry

LOCK_TYPES = (MessageType.LOCK_TREE, MessageType.UNLOCK_TREE)


def _batched_world(seed):
    config = make_config(SMOKE_SCALE, seed=seed)
    world = make_world(config, SMOKE_SCALE)
    scheme = CPVFScheme(mode="batched")
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
    """Golden end states of the batched mode on the smoke scenario.  The
    serialized repair pass has produced exactly these trajectories since
    it was introduced, position for position and message for message."""

    @pytest.mark.parametrize(
        "seed, golden",
        [
            (1, ("06c461c3810f16c9", 0.3625, 344)),
            (3, ("34ace68fc7351e12", 0.37, 360)),
            (7, ("4b626b0dd6a2b5b9", 0.3325, 344)),
        ],
    )
    def test_bit_identical_without_parent_changes(self, seed, golden):
        """Re-parenting disabled, 8 periods: the repair pass only
        re-ladders, and the end state is bit-identical to the golden."""
        config = make_config(SMOKE_SCALE, seed=seed)
        world = make_world(config, SMOKE_SCALE)
        scheme = CPVFScheme(mode="batched", allow_parent_change=False)
        scheme.initialize(world)
        for _ in range(8):
            scheme.step(world)
        digest, coverage, counts = _fingerprint(world)
        assert (digest, coverage, counts["NEIGHBOR_STATE"]) == golden
        assert "LOCK_TREE" not in counts

    @pytest.mark.parametrize(
        "seed, golden",
        [
            (3, ("f41e409e4c33c20f", 0.395, 50)),
            (5, ("4f09e9fca3a4e103", 0.425, 35)),
        ],
    )
    def test_bit_identical_with_parent_changes(self, seed, golden):
        """Full dynamics, 12 periods: repair moves and parent-change
        handshakes land on the golden end state and lock charge."""
        world, scheme = _batched_world(seed)
        for _ in range(12):
            scheme.step(world)
        digest, coverage, counts = _fingerprint(world)
        assert (digest, coverage, counts["LOCK_TREE"]) == golden
        assert counts["UNLOCK_TREE"] == counts["LOCK_TREE"]


class TestLockHandshakeSnapshot:
    #: Golden per-period LockTree (== UnLockTree) transmission counts of
    #: the batched mode on the smoke scenario.
    GOLDEN = {
        3: [0, 6, 0, 5, 21, 9, 3, 0],
        5: [0, 3, 11, 2, 18, 1, 0, 0],
    }

    @pytest.mark.parametrize("seed", [3, 5])
    def test_per_period_lock_counts_snapshot(self, seed):
        """The per-period LockTree/UnLockTree charge matches the committed
        golden trace, and every period's handshake is balanced (each lock
        wave has its unlock wave)."""
        world, scheme = _batched_world(seed)
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
        """With re-parenting disabled the repair pass only re-ladders:
        no LockTree/UnLockTree wave is ever charged and the tree keeps
        every parent it had."""
        config = make_config(SMOKE_SCALE, seed=seed)
        world = make_world(config, SMOKE_SCALE)
        scheme = CPVFScheme(mode="batched", allow_parent_change=False)
        scheme.initialize(world)
        for _ in range(8):
            parents = dict(world.tree.parent)
            scheme.step(world)
            for sid, parent in parents.items():
                assert world.tree.parent.get(sid) == parent
        assert all(
            world.routing.stats.counts.get(mt, 0) == 0 for mt in LOCK_TYPES
        )

    def test_connectivity_never_lost(self):
        """Repair moves and parent changes preserve the connected
        component: nobody already connected is ever stranded."""
        world, scheme = _batched_world(3)
        component = world.connected_component_of()
        for _ in range(10):
            scheme.step(world)
            now = world.connected_component_of()
            assert component <= now, "a connected sensor dropped out"
            component = now

    def test_telemetry_spans_and_counters(self):
        """The repair pass reports under the cpvf.repair span.  The pair
        span is split by maintenance kind with the repaired/rebuilt
        counters."""
        config = make_config(SMOKE_SCALE, seed=3)
        world = make_world(config, SMOKE_SCALE)
        tel = Telemetry()
        world.telemetry = tel
        scheme = CPVFScheme(mode="batched")
        scheme.initialize(world)
        for _ in range(8):
            scheme.step(world)
        summary = tel.summary()
        assert "cpvf.repair" in summary.phases
        assert summary.counters.get("cpvf.repair_attempts", 0) >= 1
        # Most periods are answered by the maintained pair store.
        assert summary.counters.get("cpvf.pairs_repaired", 0) >= 1
        assert "cpvf.pairs_incremental" in summary.phases
        repaired = summary.counters.get("cpvf.pairs_repaired", 0)
        rebuilt = summary.counters.get("cpvf.pairs_rebuilt", 0)
        pair_calls = sum(
            summary.phases[name].calls
            for name in ("cpvf.pairs", "cpvf.pairs_incremental")
            if name in summary.phases
        )
        # Exactly one maintenance event is counted per kernel pass.
        assert repaired + rebuilt == pair_calls
