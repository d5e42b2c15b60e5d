"""Path planning (BUG2) and the step-based motion model."""

from .bug2 import Bug2Path, Bug2Planner, Handedness
from .motion import MotionModel, PositionClock

__all__ = ["Bug2Path", "Bug2Planner", "Handedness", "MotionModel", "PositionClock"]
