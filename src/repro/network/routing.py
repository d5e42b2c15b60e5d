"""Routing cost models: flooding, tree routing and random walks.

Message *content* is handled directly by the scheme implementations (the
simulator is period-synchronous and delivery is assumed to take
negligible time compared with the period length, as in the paper).  What this module provides is the *transmission accounting* — how
many point-to-point sends each communication pattern costs — which feeds
the Table 1 message-overhead reproduction.

Under a lossy :class:`~repro.network.conditions.NetworkModel` a pattern
may be retransmitted: the ``attempts`` parameter on the tree-routing and lock
recorders multiplies the charge so retries show up in the overhead totals
exactly as they would on the air.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .messages import MessageType
from .stats import MessageStats
from .tree import BASE_STATION_ID, ConnectivityTree

__all__ = ["RoutingCostModel"]


@dataclass
class RoutingCostModel:
    """Computes and records transmission costs of the protocol patterns."""

    stats: MessageStats

    # ------------------------------------------------------------------
    # Flooding
    # ------------------------------------------------------------------
    def record_flood(self, member_count: int) -> int:
        """Network-wide flood: each connected sensor forwards once."""
        cost = max(0, member_count)
        self.stats.record_transmissions(MessageType.CONNECTIVITY_FLOOD, cost)
        return cost

    # ------------------------------------------------------------------
    # Tree routing
    # ------------------------------------------------------------------
    def record_to_base_station(
        self, tree: ConnectivityTree, node_id: int, message_type: MessageType
    ) -> int:
        """Unicast from a sensor up the tree to the base station."""
        hops = tree.depth_of(node_id)
        self.stats.record_transmissions(message_type, hops)
        return hops

    def record_from_base_station(
        self, tree: ConnectivityTree, node_id: int, message_type: MessageType
    ) -> int:
        """Unicast from the base station down to a sensor."""
        hops = tree.depth_of(node_id)
        self.stats.record_transmissions(message_type, hops)
        return hops

    def record_tree_unicast(
        self,
        tree: ConnectivityTree,
        source: int,
        destination: int,
        message_type: MessageType,
        attempts: int = 1,
        hops: Optional[int] = None,
    ) -> int:
        """Unicast between two sensors routed over the tree.

        The tree route goes up from the source to the lowest common ancestor
        and down to the destination.  ``attempts`` charges the route that
        many times (lossy-network retransmissions).  ``hops`` lets a caller
        that already walked the route (FLOOR's acknowledgement retraces its
        acceptance's route) skip the walk; it must equal
        ``tree_route_hops`` on the same tree.
        """
        if hops is None:
            hops = self.tree_route_hops(tree, source, destination)
        self.stats.record_transmissions(message_type, hops * max(1, attempts))
        return hops

    @staticmethod
    def tree_route_hops(
        tree: ConnectivityTree, source: int, destination: int
    ) -> int:
        """Number of hops of the unique tree path between two nodes."""
        if source == destination:
            return 0
        up_source = [source] + tree.ancestors_of(source) if source != BASE_STATION_ID else [BASE_STATION_ID]
        up_dest = (
            [destination] + tree.ancestors_of(destination)
            if destination != BASE_STATION_ID
            else [BASE_STATION_ID]
        )
        dest_index: Dict[int, int] = {node: i for i, node in enumerate(up_dest)}
        for i, node in enumerate(up_source):
            if node in dest_index:
                return i + dest_index[node]
        # Disconnected (should not happen for tree members); charge the full
        # two-way path through the root.
        return len(up_source) + len(up_dest)

    # ------------------------------------------------------------------
    # Random walks (FLOOR invitations)
    # ------------------------------------------------------------------
    def record_random_walk(self, ttl: int, message_type: MessageType) -> int:
        """A TTL-bounded random walk costs one transmission per hop."""
        cost = max(0, ttl)
        self.stats.record_transmissions(message_type, cost)
        return cost

    # ------------------------------------------------------------------
    # One-hop control traffic
    # ------------------------------------------------------------------
    def record_one_hop(self, message_type: MessageType, count: int = 1) -> int:
        """``count`` single-hop transmissions (neighbour state exchange etc.)."""
        self.stats.record_transmissions(message_type, count)
        return count

    def record_subtree_lock(
        self,
        tree: ConnectivityTree,
        node_id: int,
        subtree_size: Optional[int] = None,
        attempts: int = 1,
    ) -> int:
        """The LockTree/UnLockTree handshake over a node's subtree.

        ``subtree_size`` lets a caller that already walked the subtree
        (the CPVF parent-change scans do, for candidate exclusion) skip
        the second traversal; the accounting is identical.  ``attempts``
        charges the handshake that many times — each lossy-network retry
        re-runs the whole lock/unlock wave.
        """
        if subtree_size is None:
            cost = tree.lock_subtree_message_count(node_id)
        else:
            cost = 2 * max(0, subtree_size - 1)
        cost *= max(1, attempts)
        half = cost // 2
        # Both halves at once; ``cost`` is never negative.
        counts = self.stats.counts
        lock, unlock = MessageType.LOCK_TREE, MessageType.UNLOCK_TREE
        counts[lock] = counts.get(lock, 0) + half
        counts[unlock] = counts.get(unlock, 0) + cost - half
        return cost
