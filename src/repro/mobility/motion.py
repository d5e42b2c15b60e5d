"""Step-based motion model.

The paper's sensors "move in steps of variable size; in each step, a sensor
moves in a straight line at a uniform speed for a fixed amount of time
(a *period*, T), and at the end of that step it decides the direction and
size of the next step".  The maximum speed is ``V``, so the maximum step
size is ``V * T``.

:class:`MotionModel` keeps a sensor's kinematic state: its position, the
path (if any) it is currently following, and its odometer (total distance
travelled), which is the moving-distance metric of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Tuple

from ..geometry import Vec2
from .bug2 import Bug2Path

__all__ = ["MotionModel", "PositionClock"]


class PositionClock:
    """Counts the position writes of the motion models that share it.

    A :class:`~repro.sim.world.World` gives its sensors one clock, so a
    cache keyed on :attr:`writes` is stale exactly when some sensor's
    position was assigned since (a write of the same position included).
    """

    __slots__ = ("writes",)

    def __init__(self) -> None:
        self.writes = 0


#: The clock of a motion model that no world has claimed.
_UNSHARED_CLOCK = PositionClock()


@dataclass
class MotionModel:
    """Kinematics of a single mobile sensor.

    Parameters
    ----------
    position:
        Current location.
    max_speed:
        Maximum moving speed ``V`` in metres per second.
    period:
        Length ``T`` of one decision period in seconds.
    """

    position: Vec2
    max_speed: float
    period: float
    odometer: float = 0.0
    _path: Optional[Bug2Path] = field(default=None, repr=False)
    _path_progress: float = field(default=0.0, repr=False)
    #: ``_path.length()``, summed once in :meth:`follow` (a followed path
    #: is never mutated).
    _path_length: float = field(default=0.0, repr=False)

    #: The clock every position assignment bumps; a world replaces it
    #: with the one its sensors share.
    clock = _UNSHARED_CLOCK

    # ------------------------------------------------------------------
    # Direct moves
    # ------------------------------------------------------------------
    @property
    def max_step(self) -> float:
        """Maximum distance coverable in one period (``V * T``)."""
        return self.max_speed * self.period

    def move_to(self, target: Vec2) -> float:
        """Teleport-style move used after a validated step-size decision.

        The caller is responsible for having limited ``target`` to at most
        one step away and for collision checks; the odometer is charged the
        straight-line distance.  Returns the distance moved.
        """
        dist = self.position.distance_to(target)
        self.position = target
        self.odometer += dist
        return dist

    # ------------------------------------------------------------------
    # Path following
    # ------------------------------------------------------------------
    def follow(self, path: Bug2Path) -> None:
        """Start following a planned polyline path from its beginning."""
        self._path = path
        self._path_progress = 0.0
        self._path_length = path.length()
        if path.waypoints and not path.waypoints[0].almost_equals(self.position):
            # The path was planned from (a projection of) the current
            # position; snap to it so arc-length progress stays consistent.
            self.position = path.waypoints[0]

    @property
    def has_path(self) -> bool:
        """Whether the sensor is currently following a path."""
        return self._path is not None

    @property
    def path(self) -> Optional[Bug2Path]:
        """The path being followed, if any."""
        return self._path

    def advance_along_path(self, distance: Optional[float] = None) -> float:
        """Advance along the current path by at most one step.

        Returns the distance moved.  The path is cleared automatically when
        its end is reached.
        """
        step = self.path_step(distance)
        if step is None:
            return 0.0
        x, y, travel = step
        self.position = Vec2(x, y)
        return travel

    def path_step(
        self, distance: Optional[float] = None
    ) -> Optional[Tuple[float, float, float]]:
        """:meth:`advance_along_path` on floats, short of moving.

        Charges the path progress and the odometer and clears a finished
        path, then returns ``(x, y, travel)``: the point reached, which
        the caller commits to :attr:`position`, and the distance moved.
        ``None`` when nothing moves.
        """
        path = self._path
        if path is None:
            return None
        max_step = self.max_speed * self.period
        limit = max_step if distance is None else min(distance, max_step)
        if limit <= 0:
            return None
        travel = min(limit, max(0.0, self._path_length - self._path_progress))
        progress = self._path_progress + travel
        self._path_progress = progress
        x, y = path.point_xy_at_distance(progress)
        self.odometer += travel
        if self._path_length - progress <= 1e-9:
            self._path = None
            self._path_progress = 0.0
        return x, y, travel

    def stop(self) -> None:
        """Abandon the current path (the sensor stays where it is)."""
        self._path = None
        self._path_progress = 0.0


def _set_position(motion: MotionModel, value: Vec2) -> None:
    # Every position assignment bumps the clock; the spatial subsystem's
    # NeighborCache keys its epoch on the world's clock, so it recaptures
    # exactly when a sensor was moved.  Other attribute writes (odometer,
    # path progress) are plain.
    motion._position = value
    motion.clock.writes += 1


# Installed after the dataclass is built, so that ``position`` stays an
# ``__init__`` field; reads go through a C-level getter.
MotionModel.position = property(  # type: ignore[assignment]
    attrgetter("_position"), _set_position, doc="Current location."
)
