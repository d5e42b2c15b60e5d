"""The paper's primary contribution: the CPVF and FLOOR deployment schemes."""

from .batch_ladder import TreeSchedule, batched_ladder_steps, tree_level_colors
from .connectivity import STEP_FRACTIONS
from .cpvf import CPVFScheme, CPVF_MODES
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
    "CPVF_MODES",
    "TreeSchedule",
    "batched_ladder_steps",
    "tree_level_colors",
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
