"""Sensor life-cycle states.

The two schemes share the connectivity-establishment states; the FLOOR
scheme adds the fixed / movable / relocating distinction of its second and
third phases.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["CONNECTED_STATES", "SensorState"]


class SensorState(Enum):
    """The state of a sensor within a deployment scheme."""

    #: Not yet aware of a multi-hop route to the base station.
    DISCONNECTED = "disconnected"

    #: Disconnected and currently walking (BUG2) toward the base station.
    MOVING_TO_CONNECT = "moving_to_connect"

    #: Connected to the base station via the connectivity tree.
    CONNECTED = "connected"

    #: FLOOR: connected and declared immovable (it anchors coverage).
    FIXED = "fixed"

    #: FLOOR: connected and free to relocate to an expansion point.
    MOVABLE = "movable"

    #: FLOOR: movable sensor en route to an accepted expansion point.
    RELOCATING = "relocating"

    #: Permanently dead (battery exhaustion / injected fault).  A failed
    #: sensor keeps its slot in ``world.sensors`` so sensor ids stay equal
    #: to list indices, but it no longer senses, moves or relays.
    FAILED = "failed"

    def is_connected(self) -> bool:
        """Whether the state is one of the connected ones.

        ``CONNECTED``, ``FIXED``, ``MOVABLE`` and ``RELOCATING``.  Every
        sensor in such a state has joined the connectivity tree, but a
        ``RELOCATING`` sensor is detached from ``world.tree`` while in
        transit (its subtree is re-homed before it leaves), so this is not
        a tree-membership test; ask ``world.tree`` for that.
        """
        return self in CONNECTED_STATES


#: The connected states, built once: ``is_connected`` runs for every
#: sensor several times a period, and a tuple ``in`` test on enum members
#: is an identity scan.
CONNECTED_STATES = (
    SensorState.CONNECTED,
    SensorState.FIXED,
    SensorState.MOVABLE,
    SensorState.RELOCATING,
)
