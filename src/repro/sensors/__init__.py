"""Sensor node model and life-cycle states."""

from .sensor import Sensor
from .states import CONNECTED_STATES, SensorState

__all__ = ["CONNECTED_STATES", "Sensor", "SensorState"]
