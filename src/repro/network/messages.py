"""Protocol message types.

The schemes exchange short control messages: connectivity floods, lazy-
movement ``PathParentInquiry`` probes, CPVF's ``LockTree`` / ``UnLockTree``
tree-locking handshake, FLOOR's ``Invitation`` random walks and the
coverage-status queries answered by floor-header nodes.  Table 1 of the
paper reports the *number* of such messages, so the network layer models
them as counted transmissions rather than payload-carrying packets.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["MessageType", "NET_COUNTER_KEYS"]

#: Delivery-condition counter keys recorded by :mod:`repro.network.conditions`
#: and carried by :class:`repro.network.stats.MessageStats` alongside the
#: per-type transmission counts.  Surfaced as ``net.<key>`` telemetry.
NET_COUNTER_KEYS = ("dropped", "delayed", "retries", "timeouts", "stale_reads")


class MessageType(Enum):
    """All protocol message categories used by CPVF and FLOOR."""

    #: Connectivity flood originating near the base station.
    CONNECTIVITY_FLOOD = "connectivity_flood"
    #: Lazy movement: probe along the path-parent chain to detect wait loops.
    PATH_PARENT_INQUIRY = "path_parent_inquiry"
    #: Neighbour state exchange (position/direction/period end) before a step.
    NEIGHBOR_STATE = "neighbor_state"
    #: CPVF: request to lock the subtree before changing parent.
    LOCK_TREE = "lock_tree"
    #: CPVF: release a previously locked subtree.
    UNLOCK_TREE = "unlock_tree"
    #: FLOOR: arrival report from a newly connected sensor to the base station.
    ARRIVAL_REPORT = "arrival_report"
    #: FLOOR: base-station response carrying the ancestor list.
    ANCESTOR_RESPONSE = "ancestor_response"
    #: FLOOR: coverage-status query routed to floor header nodes.
    COVERAGE_QUERY = "coverage_query"
    #: FLOOR: floor header's response to a coverage-status query.
    COVERAGE_RESPONSE = "coverage_response"
    #: FLOOR: random-walk invitation advertising an expansion point.
    INVITATION = "invitation"
    #: FLOOR: a movable sensor accepting an invitation.
    ACCEPT_INVITATION = "accept_invitation"
    #: FLOOR: acknowledgement (or implicit rejection) of an acceptance.
    ACKNOWLEDGE = "acknowledge"
    #: FLOOR: location update sent up the tree for a virtual fixed node.
    LOCATION_UPDATE = "location_update"
    #: Lifecycle: orphan-subtree probe / re-attach traffic after a node dies.
    TREE_REPAIR = "tree_repair"

    # Members compare by identity, so the identity hash is consistent
    # with equality; it runs in C, where Enum's own hashes the name in
    # Python on every counter update.
    __hash__ = object.__hash__
