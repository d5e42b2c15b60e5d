"""Batched tree-route evaluation vs the scalar chain walk.

:class:`TreeWalkIndex` answers a whole invitation round's tree routes
level-synchronously over flattened parent/depth arrays.  Its contract is
exact agreement with the scalar :meth:`RoutingCostModel.tree_route_hops`
for *every* endpoint kind the protocol produces: tree members, the base
station, ids outside the tree (FLOOR's virtual fixed nodes used as route
endpoints), and members whose ancestor chain passes through a detached
(dead) node.  The end-to-end check drives a full FLOOR run twice —
batched and scalar walks — and requires bit-identical positions and
message counts.
"""

import random

import pytest

from repro.core import FloorScheme
from repro.experiments.common import SMOKE_SCALE, make_config, make_world
from repro.network import BASE_STATION_ID, ConnectivityTree, RoutingCostModel
from repro.network.walks import TreeWalkIndex
from tests.oracles import scalar_walks


def random_tree(rng: random.Random, n: int) -> ConnectivityTree:
    tree = ConnectivityTree()
    attached = []
    for node in range(n):
        parent = (
            BASE_STATION_ID
            if not attached
            else rng.choice(attached + [BASE_STATION_ID])
        )
        tree.attach(node, parent)
        attached.append(node)
    return tree


def scalar_hops(tree, src, dst):
    return RoutingCostModel.tree_route_hops(tree, src, dst)


class TestTreeWalkIndex:
    @pytest.mark.parametrize("trial", range(12))
    def test_route_hops_match_scalar_walk(self, trial):
        rng = random.Random(100 + trial)
        n = rng.randint(1, 60)
        tree = random_tree(rng, n)
        endpoints = list(range(n))
        endpoints += [BASE_STATION_ID]  # the base station itself
        endpoints += [n + 5, 10**6 + trial]  # non-members / virtual ids
        sources = [rng.choice(endpoints) for _ in range(80)]
        dests = [rng.choice(endpoints) for _ in range(80)]
        index = TreeWalkIndex(tree)
        assert not index.degenerate
        got = index.route_hops(sources, dests)
        for k, (src, dst) in enumerate(zip(sources, dests)):
            assert got[k] == scalar_hops(tree, src, dst), (
                f"route {src}->{dst}"
            )

    @pytest.mark.parametrize("trial", range(6))
    def test_detached_ancestor_chains_match(self, trial):
        """A dead mid-chain ancestor truncates the chain identically."""
        rng = random.Random(40 + trial)
        n = rng.randint(10, 40)
        tree = random_tree(rng, n)
        # Detach a few nodes the raw way a failure leaves the structure:
        # the node's own parent entry disappears while its children still
        # point at it (``ancestors_of`` then ends the chain at BASE).
        victims = rng.sample(range(n), 3)
        for v in victims:
            tree.parent.pop(v, None)
        index = TreeWalkIndex(tree)
        survivors = [i for i in range(n) if i not in victims]
        pairs = [
            (rng.choice(survivors), rng.choice(survivors)) for _ in range(40)
        ]
        got = index.route_hops([p[0] for p in pairs], [p[1] for p in pairs])
        for k, (src, dst) in enumerate(pairs):
            assert got[k] == scalar_hops(tree, src, dst)

    def test_depths_match_tree(self):
        tree = random_tree(random.Random(9), 30)
        index = TreeWalkIndex(tree)
        ids = list(range(30)) + [BASE_STATION_ID, 77]
        depths = index.depths(ids)
        for node, depth in zip(ids, depths.tolist()):
            assert depth == tree.depth_of(node)

    def test_identical_endpoints_are_zero_hops(self):
        tree = random_tree(random.Random(1), 10)
        index = TreeWalkIndex(tree)
        hops = index.route_hops([3, BASE_STATION_ID, 50], [3, BASE_STATION_ID, 50])
        assert hops.tolist() == [0, 0, 0]

    def test_huge_id_domain_is_degenerate(self):
        tree = ConnectivityTree()
        tree.attach(0, BASE_STATION_ID)
        tree.attach(10**9, 0)  # a member (not endpoint) with a huge id
        index = TreeWalkIndex(tree)
        assert index.degenerate

    def test_cycle_raises(self):
        tree = ConnectivityTree()
        tree.attach(0, BASE_STATION_ID)
        tree.attach(1, 0)
        tree.parent[0] = 1  # corrupt: 0 <-> 1
        with pytest.raises(RuntimeError, match="cycle"):
            TreeWalkIndex(tree)


class TestFloorBatchedWalks:
    """End-to-end: batched and scalar walks run the same simulation."""

    def _run(self, seed, batch):
        config = make_config(SMOKE_SCALE, sensor_count=40, seed=seed)
        world = make_world(config, SMOKE_SCALE)
        scheme = FloorScheme()
        scheme.initialize(world)
        if not batch:
            scheme._invitations = scalar_walks(scheme._invitations)
        for period in range(8):
            world.period_index = period
            world.network.on_period(world)
            scheme.step(world)
            world.time += world.config.period
        positions = [
            (s.position.x, s.position.y) for s in world.sensors
        ]
        counts = {
            mt.name: c for mt, c in world.routing.stats.counts.items()
        }
        return positions, counts, world.coverage()

    @pytest.mark.parametrize("seed", [1, 3])
    def test_batched_run_is_bit_identical_to_scalar(self, seed):
        batched = self._run(seed, batch=True)
        scalar = self._run(seed, batch=False)
        assert batched[0] == scalar[0]  # positions, bit-exact
        assert batched[1] == scalar[1]  # per-type message counts
        assert batched[2] == scalar[2]
