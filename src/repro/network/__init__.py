"""Network substrate: radio model, messages, conditions, tree, routing costs.

The radio is the paper's isotropic unit disk of radius ``rc``, the same for
every sensor: two nodes are neighbours exactly when their distance is at
most ``rc``.  Obstacles block *movement* and *sensing* but the paper does
not model radio shadowing, so neither do we.  The world's single
``config.communication_range`` is therefore the whole radio model;
neighbour tables, base-station adjacency and connectivity are answered by
:class:`~repro.spatial.NeighborCache` over one spatial index per epoch.
"""

from .conditions import (
    NETWORK_SCHEMA_VERSION,
    NetworkModel,
    NetworkSpec,
    PERFECT_NETWORK,
    RETRY_LIMIT,
)
from .messages import MessageType, NET_COUNTER_KEYS
from .routing import RoutingCostModel
from .stats import MessageStats
from .tree import BASE_STATION_ID, ConnectivityTree

#: Link tolerance used by every range comparison: a link exists when the
#: distance is at most ``rc + LINK_EPS`` (squared-distance tests compare
#: against ``(rc + LINK_EPS) ** 2``).  Protocol layers that read *stale*
#: neighbour tables (see ``repro.network.conditions``) revalidate entries
#: against live positions with exactly this tolerance before acting on
#: them.
LINK_EPS = 1e-9

__all__ = [
    "MessageType",
    "NET_COUNTER_KEYS",
    "NETWORK_SCHEMA_VERSION",
    "NetworkModel",
    "NetworkSpec",
    "PERFECT_NETWORK",
    "RETRY_LIMIT",
    "LINK_EPS",
    "RoutingCostModel",
    "MessageStats",
    "BASE_STATION_ID",
    "ConnectivityTree",
]
