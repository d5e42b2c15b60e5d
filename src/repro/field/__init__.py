"""Field model: the bounded sensing field, obstacles and canonical layouts."""

from .obstacles import Obstacle
from .field import Field
from .layouts import (
    CLUSTER_SIZE,
    FIELD_SIZE,
    clustered_initial_positions,
    clustered_placement,
    corridor_field,
    obstacle_free_field,
    two_obstacle_field,
    uniform_initial_positions,
    uniform_placement,
)

__all__ = [
    "Obstacle",
    "Field",
    "FIELD_SIZE",
    "CLUSTER_SIZE",
    "obstacle_free_field",
    "two_obstacle_field",
    "corridor_field",
    "clustered_initial_positions",
    "uniform_initial_positions",
    "clustered_placement",
    "uniform_placement",
]
