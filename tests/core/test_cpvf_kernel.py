"""CPVF's coverage kernel against the seed dynamics, and its tree caches.

The kernel evaluates every force from start-of-period positions, where
the seed dynamics (``tests.oracles.SeedCPVF``) let each sensor see the
earlier movers of its period.  Pinned here: the structural
message-accounting identity between the two, the plateau agreement at
bench scale, the subtree cache following the tree (CPVF's own parent
changes included, in lossy churn runs), every tree link within rc after
every period, and that the deleted ``mode`` knob is rejected.
"""

import copy
import random
from types import SimpleNamespace

import pytest

from repro.api import NetworkSpec, RunSpec, execute_run
from repro.core import CPVFScheme
from repro.core.lazy import LazyMovementController
from repro.core.oscillation import OscillationAvoidance
from repro.core.virtual_force import VirtualForceModel
from repro.experiments.common import (
    ExperimentScale,
    SMOKE_SCALE,
    make_scenario,
)
from repro.experiments.lifecycle import lifecycle_events
from repro.mobility import Bug2Planner, Handedness
from repro.network import BASE_STATION_ID, ConnectivityTree
from repro.obs import NULL_TELEMETRY
from repro.sim import SimulationEngine
from tests.oracles import SeedCPVF, reference_subtree_lock_depth


def _sequential_twin(world, config):
    """A seed scheme wired to an already-initialized world copy."""
    scheme = SeedCPVF(allow_parent_change=False)
    scheme._planner = Bug2Planner(world.field, Handedness.RIGHT)
    scheme._forces = VirtualForceModel(
        repulsion_distance=2.0 * config.sensing_range,
        obstacle_distance=config.sensing_range,
    )
    scheme._lazy = LazyMovementController(world.routing)
    scheme._avoidance = OscillationAvoidance(
        max_step=config.max_step, delta=None
    )
    return scheme


class TestMessageParity:
    def test_message_counts_match_sequential_per_period(self):
        """From identical world snapshots, one kernel period records the
        same transmissions a sequential period does.

        Without parent changes the accounting is purely structural (one
        NEIGHBOR_STATE per preserved link of every sensor with non-zero
        force), so the totals must be identical period for period.
        """
        world = make_scenario(SMOKE_SCALE, seed=3).build_world()
        scheme = CPVFScheme(allow_parent_change=False)
        scheme.initialize(world)
        for period in range(40):
            snap = copy.deepcopy(world)
            twin = _sequential_twin(snap, world.config)
            before = snap.stats.total()
            twin.step(snap)
            sequential_delta = snap.stats.total() - before
            before = world.stats.total()
            scheme.step(world)
            kernel_delta = world.stats.total() - before
            assert kernel_delta == sequential_delta, (
                f"period {period}: kernel recorded {kernel_delta} "
                f"transmissions, sequential {sequential_delta}"
            )

    def test_first_period_parity_with_parent_changes(self):
        """Starting from one initialized state, the first coverage period
        records identical totals under both dynamics (no reparent happens
        that early in the smoke scenario)."""
        results = {}
        for label, scheme in (("sequential", SeedCPVF()), ("cpvf", CPVFScheme())):
            world = make_scenario(SMOKE_SCALE, seed=3).build_world()
            scheme.initialize(world)
            before = world.stats.total()
            scheme.step(world)
            results[label] = world.stats.total() - before
        assert results["cpvf"] == results["sequential"]


class TestPlateauParity:
    def test_reaches_sequential_plateau(self):
        """Fig 3-style run: the kernel plateaus within two coverage
        points of the sequential dynamics."""
        scale = ExperimentScale(
            field_size=500.0,
            sensor_count=70,
            duration=250.0,
            coverage_resolution=12.5,
        )
        coverages = {}
        for label, scheme in (("sequential", SeedCPVF()), ("cpvf", CPVFScheme())):
            world = make_scenario(scale, seed=7).build_world()
            engine = SimulationEngine(world, scheme, trace_every=10**9)
            coverages[label] = engine.run().final_coverage
        gap = abs(coverages["cpvf"] - coverages["sequential"])
        assert gap <= 0.02, coverages
        # Both reach a meaningful plateau (not a degenerate agreement).
        assert coverages["sequential"] > 0.5


def _assert_subtrees_match_tree(scheme, world, nodes):
    """Every cached ``(subtree, lock depth)`` is a fresh walk's."""
    tree = world.tree
    for sid in nodes:
        expected = (tree.subtree_of(sid), reference_subtree_lock_depth(tree, sid))
        assert scheme._subtree(world, sid) == expected, sid


def _assert_cached_subtrees_fresh(scheme, world):
    """Every entry the cache holds now is a fresh walk's, read without
    walking again."""
    tree = world.tree
    assert scheme._tree_version == tree.version
    for root, entry in scheme._subtrees.items():
        expected = (tree.subtree_of(root), reference_subtree_lock_depth(tree, root))
        assert entry == expected, root


class TestTreeCaches:
    def test_own_reparent_keeps_the_unaltered_entries(self):
        """CPVF's parent change drops exactly the cached subtrees that
        hold the old or the new parent; the rest stay, still exact."""
        world = make_scenario(SMOKE_SCALE, seed=5).build_world()
        scheme = CPVFScheme()
        scheme.initialize(world)
        tree = world.tree
        members = tree.members()
        for sid in members:
            scheme._subtree(world, sid)
        sid = next(m for m in members if tree.parent_of(m) != BASE_STATION_ID)
        old_parent = tree.parent_of(sid)
        new_parent = next(
            (
                m
                for m in members
                if m != old_parent and m not in tree.subtree_of(sid)
            ),
            None,
        )
        if new_parent is None:
            pytest.skip("degenerate smoke tree")
        before = dict(scheme._subtrees)
        scheme._reparent(world, sid, new_parent)
        assert tree.parent_of(sid) == new_parent
        _assert_cached_subtrees_fresh(scheme, world)
        dropped = {
            root
            for root, (members_of, _) in before.items()
            if old_parent in members_of or new_parent in members_of
        }
        assert old_parent in dropped and new_parent in dropped
        assert set(scheme._subtrees) == set(before) - dropped
        assert sid in scheme._subtrees
        # A change from elsewhere still drops the whole cache.
        tree.reparent(sid, old_parent)
        scheme._subtree(world, sid)
        assert set(scheme._subtrees) == {sid}

    def test_reusing_scheme_across_worlds_resets_tree_caches(self):
        """A fresh world restarts its tree version counter, so the
        link-id and subtree caches of a reused scheme instance must be
        dropped by initialize() — stale entries from the previous world
        would collide with the new counter values."""
        scheme = CPVFScheme()
        primed_version = None
        for seed in (3, 19):
            world = make_scenario(SMOKE_SCALE, seed=seed).build_world()
            scheme.initialize(world)
            if primed_version is not None:
                # Force the collision: the new tree's counter reads the
                # version the previous world's entries were cached at.
                world.tree.version = primed_version
            ids = [s.sensor_id for s in world.sensors]
            _assert_subtrees_match_tree(scheme, world, ids)
            for _ in range(10):
                scheme.step(world)
            world.tree.validate()
            _assert_subtrees_match_tree(scheme, world, ids)
            primed_version = world.tree.version

    @pytest.mark.parametrize("seed", range(6))
    def test_subtree_cache_follows_random_tree_edits(self, seed):
        """After each random attach, reparent, detach or orphan repair,
        the cached ``(subtree, lock depth)`` of every id equals
        ``tree.subtree_of`` and the reference depth walk, and an
        unchanged tree answers from the cache."""
        rng = random.Random(seed)
        tree = ConnectivityTree()
        world = SimpleNamespace(tree=tree, telemetry=NULL_TELEMETRY)
        scheme = CPVFScheme()
        next_id = 0
        for _ in range(250):
            members = tree.members()
            op = rng.choice(("attach", "attach", "reparent", "detach", "orphan"))
            if op == "attach" or not members:
                tree.attach(next_id, rng.choice([BASE_STATION_ID] + members))
                next_id += 1
            elif op == "reparent":
                # reparent refuses (and leaves the tree alone) on a loop.
                node = rng.choice(members)
                tree.reparent(node, rng.choice([BASE_STATION_ID] + members))
            elif op == "detach":
                node = rng.choice(members)
                if rng.random() < 0.5:
                    tree.detach(node, keep_subtree=False)
                else:
                    tree.detach(node, keep_subtree=True)
                    outside = sorted(
                        tree.subtree_of(BASE_STATION_ID) - tree.subtree_of(node)
                    )
                    tree.attach(node, rng.choice(outside))
            else:
                # A node dies; each orphaned subtree re-roots at one of its
                # members and re-attaches to the main tree, or is dropped.
                for root in tree.remove_node(rng.choice(members)):
                    orphaned = sorted(tree.subtree_of(root))
                    if rng.random() < 0.75:
                        new_root = rng.choice(orphaned)
                        tree.reroot_floating(root, new_root)
                        anchored = sorted(tree.subtree_of(BASE_STATION_ID))
                        tree.attach(new_root, rng.choice(anchored))
                    else:
                        tree.discard_floating(root)
            tree.validate()
            _assert_subtrees_match_tree(scheme, world, range(next_id))
            some = rng.randrange(next_id)
            assert scheme._subtree(world, some) is scheme._subtree(world, some)

    @pytest.mark.parametrize("seed", range(4))
    def test_cache_is_exact_after_every_parent_change_under_lossy_churn(
        self, seed, monkeypatch
    ):
        """In lossy churn runs, after every parent change CPVF makes,
        each cached ``(subtree, lock depth)`` equals a fresh walk."""
        changes = []
        reparent = CPVFScheme._reparent

        def checked(scheme, world, sensor_id, new_parent):
            reparent(scheme, world, sensor_id, new_parent)
            if scheme._tree_version == world.tree.version:
                _assert_cached_subtrees_fresh(scheme, world)
            changes.append(len(scheme._subtrees))

        monkeypatch.setattr(CPVFScheme, "_reparent", checked)
        events = ()
        for script in ("interior-cascade", "reinforcements"):
            events += lifecycle_events(script, SMOKE_SCALE)
        scenario = make_scenario(SMOKE_SCALE, seed=seed, events=events)
        network = NetworkSpec("unreliable", loss=0.1 + 0.1 * seed, staleness=5)
        execute_run(RunSpec(scenario, "CPVF", network=network))
        assert changes
        # The cache kept entries across some of those changes.
        assert any(changes)


class TestTreeLinkInvariant:
    @pytest.mark.parametrize("with_obstacles", [False, True])
    @pytest.mark.parametrize("seed", [3, 5])
    def test_tree_links_stay_within_rc_every_period(self, seed, with_obstacles):
        """After every period each tree member is within rc of its parent
        (the base station for its children), with parent changes on."""
        world = make_scenario(
            SMOKE_SCALE,
            seed=seed,
            layout="two-obstacle" if with_obstacles else "obstacle-free",
        ).build_world()
        scheme = CPVFScheme()
        scheme.initialize(world)
        rc = world.config.communication_range
        for _ in range(12):
            scheme.step(world)
            world.tree.validate()
            for sid in world.tree.members():
                parent = world.tree.parent_of(sid)
                anchor = (
                    world.base_station
                    if parent == BASE_STATION_ID
                    else world.sensor(parent).position
                )
                assert world.sensor(sid).position.distance_to(anchor) <= rc + 1e-6


class TestRemovedModeKnob:
    def test_mode_is_rejected(self):
        with pytest.raises(TypeError):
            CPVFScheme(mode="batched")

    def test_mode_is_rejected_through_runspec(self):
        from repro.api import RunSpec, execute_run
        from repro.experiments.common import make_scenario

        spec = RunSpec(
            scenario=make_scenario(SMOKE_SCALE, seed=3),
            scheme="CPVF",
            scheme_params={"mode": "batched"},
        )
        with pytest.raises(TypeError):
            execute_run(spec)

    def test_runner_has_no_cpvf_mode_flag(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--cpvf-mode", "batched", "--list"])
        assert excinfo.value.code == 2
        assert "--cpvf-mode" in capsys.readouterr().err
