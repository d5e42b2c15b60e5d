"""Step-based motion model.

The paper's sensors "move in steps of variable size; in each step, a sensor
moves in a straight line at a uniform speed for a fixed amount of time
(a *period*, T), and at the end of that step it decides the direction and
size of the next step".  The maximum speed is ``V``, so the maximum step
size is ``V * T``.

:class:`MotionModel` keeps a sensor's kinematic state: its position, the
path (if any) it is currently following, and its odometer (total distance
travelled), which is the moving-distance metric of the evaluation.  It is
the only code that writes a position: every move and path step is charged
to the odometer, and every correction that is not a move (an obstacle
exit, a snap onto a path's start) is counted, by cause, in an
``uncharged`` ledger next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Optional, Tuple

from ..geometry import Vec2
from .bug2 import Bug2Path

__all__ = ["MotionModel", "PositionClock"]


class PositionClock:
    """Counts the position writes of the motion models that share it.

    A :class:`~repro.sim.world.World` gives its sensors one clock, so a
    cache keyed on :attr:`writes` is stale exactly when some sensor's
    position was written since (a write of the same position included).
    :attr:`corrections` counts the uncharged corrections
    (:meth:`MotionModel.relocate`) of those models by cause.
    """

    __slots__ = ("writes", "corrections")

    def __init__(self) -> None:
        self.writes = 0
        self.corrections: Dict[str, int] = {}


#: The clock of a motion model that no world has claimed.
_UNSHARED_CLOCK = PositionClock()


@dataclass(init=False)
class MotionModel:
    """Kinematics of a single mobile sensor.

    The model is the only writer of the sensor's position, in three
    forms: a charged move (:meth:`move_to`, :meth:`move_to_xy`), a
    charged path advance (:meth:`advance_along_path`) and an uncharged
    correction (:meth:`relocate`), whose distance is kept in
    :attr:`uncharged` next to :attr:`odometer`.  Every write bumps
    :attr:`clock` once.

    Parameters
    ----------
    position:
        Current location.
    max_speed:
        Maximum moving speed ``V`` in metres per second.
    period:
        Length ``T`` of one decision period in seconds.
    """

    _position: Vec2
    max_speed: float
    period: float
    odometer: float
    #: Summed displacement of the uncharged corrections.
    uncharged: float
    _path: Optional[Bug2Path] = field(repr=False)
    _path_progress: float = field(repr=False)
    #: ``_path.length()``, summed once in :meth:`follow` (a followed path
    #: is never mutated).
    _path_length: float = field(repr=False)

    #: The clock every position write bumps; a world replaces it with
    #: the one its sensors share.
    clock = _UNSHARED_CLOCK

    def __init__(self, position: Vec2, max_speed: float, period: float) -> None:
        self._position = position
        self.max_speed = max_speed
        self.period = period
        self.odometer = 0.0
        self.uncharged = 0.0
        self._path = None
        self._path_progress = 0.0
        self._path_length = 0.0

    # Read-only: the methods below are the writers.
    position = property(attrgetter("_position"), doc="Current location.")

    # ------------------------------------------------------------------
    # Charged moves
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
        return self.move_to_xy(target.x, target.y)

    def move_to_xy(self, x: float, y: float) -> float:
        """:meth:`move_to` on floats: the odometer is charged
        ``Vec2.distance_to``'s ``hypot``."""
        position = self._position
        dist = math.hypot(position.x - x, position.y - y)
        self._position = Vec2(x, y)
        self.clock.writes += 1
        self.odometer += dist
        return dist

    # ------------------------------------------------------------------
    # Uncharged corrections
    # ------------------------------------------------------------------
    def relocate(self, position: Vec2, cause: str) -> None:
        """Place the sensor at ``position`` without charging the odometer.

        For corrections that are not moves (an obstacle exit, a snap onto
        a path's start).  The displacement goes to :attr:`uncharged` and
        the call is counted under ``cause`` in ``clock.corrections``.
        """
        old = self._position
        self.uncharged += math.hypot(old.x - position.x, old.y - position.y)
        self._position = position
        clock = self.clock
        clock.writes += 1
        clock.corrections[cause] = clock.corrections.get(cause, 0) + 1

    # ------------------------------------------------------------------
    # Path following
    # ------------------------------------------------------------------
    def follow(self, path: Bug2Path) -> None:
        """Start following a planned polyline path from its beginning."""
        self._path = path
        self._path_progress = 0.0
        self._path_length = path.length()
        if path.waypoints and not path.waypoints[0].almost_equals(self._position):
            # The path was planned from (a projection of) the current
            # position; snap to it so arc-length progress stays consistent.
            self.relocate(path.waypoints[0], "path_snap")

    @property
    def has_path(self) -> bool:
        """Whether the sensor is currently following a path."""
        return self._path is not None

    @property
    def path(self) -> Optional[Bug2Path]:
        """The path being followed, if any."""
        return self._path

    def advance_along_path(
        self, distance: Optional[float] = None
    ) -> Optional[Tuple[float, float, float]]:
        """Advance along the current path by at most one step.

        Charges the path progress and the odometer, moves the sensor and
        clears a finished path, then returns ``(x, y, travel)``: the point
        reached and the distance moved.  ``None`` when nothing moves.
        """
        path = self._path
        if path is None:
            return None
        max_step = self.max_speed * self.period
        limit = max_step if distance is None or max_step < distance else distance
        if limit <= 0:
            return None
        # ``min(limit, max(0.0, left))`` without the builtins' calls.
        left = self._path_length - self._path_progress
        travel = limit if limit <= left else left if left > 0.0 else 0.0
        progress = self._path_progress + travel
        self._path_progress = progress
        x, y = path.point_xy_at_distance(progress)
        self._position = Vec2(x, y)
        self.clock.writes += 1
        self.odometer += travel
        if self._path_length - progress <= 1e-9:
            self._path = None
            self._path_progress = 0.0
        return x, y, travel

    def stop(self) -> None:
        """Abandon the current path (the sensor stays where it is)."""
        self._path = None
        self._path_progress = 0.0
