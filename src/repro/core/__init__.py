"""The paper's primary contribution: the CPVF and FLOOR deployment schemes."""

from .connectivity import STEP_FRACTIONS
from .cpvf import CPVFScheme
from .expansion import ExpansionKind, ExpansionPlanner, ExpansionPoint
from .floor_scheme import FloorScheme
from .floors import FloorGeometry
from .headers import FloorRecord, FloorRegistry
from .invitations import InvitationAssignment, InvitationProtocol
from .lazy import LazyMovementController
from .oscillation import OscillationAvoidance, OscillationMode
from .virtual_force import VirtualForceModel

__all__ = [
    "STEP_FRACTIONS",
    "CPVFScheme",
    "ExpansionKind",
    "ExpansionPlanner",
    "ExpansionPoint",
    "FloorScheme",
    "FloorGeometry",
    "FloorRecord",
    "FloorRegistry",
    "InvitationAssignment",
    "InvitationProtocol",
    "LazyMovementController",
    "OscillationAvoidance",
    "OscillationMode",
    "VirtualForceModel",
]
