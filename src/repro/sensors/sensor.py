"""The mobile sensor node.

A :class:`Sensor` bundles identity, the sensing range ``rs``, the
kinematic state (a :class:`~repro.mobility.MotionModel`, the only writer
of its position) and the protocol state used by the deployment schemes
(connectivity state, lazy-movement history, oscillation history).  The
connectivity tree itself lives in ``world.tree``
(:class:`~repro.network.ConnectivityTree`).  The communication range is
not per sensor: the paper's unit disk is the world's single
``config.communication_range`` (see :mod:`repro.network`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from ..geometry import Vec2
from ..mobility import MotionModel
from .states import CONNECTED_STATES, SensorState

__all__ = ["Sensor"]


@dataclass
class Sensor:
    """A single mobile sensor node."""

    sensor_id: int
    motion: MotionModel
    sensing_range: float
    state: SensorState = SensorState.DISCONNECTED

    #: Lazy movement: how many consecutive periods the sensor has not moved.
    idle_periods: int = 0
    #: Lazy movement: path parents that led to a wait-loop and must not be
    #: chosen again.
    rejected_path_parents: Set[int] = field(default_factory=set)

    #: Oscillation-avoidance history (CPVF): position at the end of the
    #: previous step.
    previous_position: Optional[Vec2] = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def position(self) -> Vec2:
        """Current position (delegates to the motion model, its only
        writer)."""
        return self.motion.position

    @property
    def moving_distance(self) -> float:
        """Total distance moved so far (the paper's energy proxy)."""
        return self.motion.odometer

    # ------------------------------------------------------------------
    # State predicates
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the sensor's state is a connected one.

        See :meth:`SensorState.is_connected`: a ``RELOCATING`` sensor
        counts, although it is detached from ``world.tree`` in transit.
        """
        return self.state in CONNECTED_STATES

    def is_alive(self) -> bool:
        """Whether the sensor is still operational (not FAILED)."""
        return self.state is not SensorState.FAILED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Sensor(id={self.sensor_id}, pos={self.position}, "
            f"state={self.state.value})"
        )
