"""Simulation engine: configuration, world state and the period loop."""

from .config import SimulationConfig
from .engine import DeploymentScheme, SimulationEngine, SimulationResult
from .lifecycle import (
    EVENT_KINDS,
    FaultInjector,
    LifecycleEvent,
    WorldChange,
    normalize_events,
    obstacle_appear,
    obstacle_clear,
    sensor_failure,
    sensor_join,
)
from .world import World

__all__ = [
    "SimulationConfig",
    "DeploymentScheme",
    "SimulationEngine",
    "SimulationResult",
    "World",
    "EVENT_KINDS",
    "FaultInjector",
    "LifecycleEvent",
    "WorldChange",
    "normalize_events",
    "obstacle_appear",
    "obstacle_clear",
    "sensor_failure",
    "sensor_join",
]
