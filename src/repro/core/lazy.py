"""The lazy-movement strategy (Section 3.3).

While establishing connectivity, not every disconnected sensor needs to walk
all the way to the base station: if a neighbour is already *ahead* (closer
to the destination), the sensor can adopt it as its *path parent* and pause,
hoping the path parent will become connected first and spare it the walk.

Two safeguards keep the strategy sound:

* a sensor may only adopt a neighbour as path parent if that neighbour is
  not simultaneously adopting *it* (no trivial mutual wait), and
* a sensor that has not moved for several periods sends a
  ``PathParentInquiry`` along the path-parent chain; if the message comes
  back to itself a wait-loop exists, the sensor resumes walking and never
  picks that path parent again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..geometry import Vec2
from ..network import MessageType, RoutingCostModel
from ..sensors import Sensor

__all__ = ["LazyMovementController"]

#: After this many consecutive idle periods a waiting sensor probes its
#: path-parent chain for a loop.
_LOOP_CHECK_IDLE_PERIODS = 3


@dataclass
class LazyMovementController:
    """Tracks path-parent relationships among disconnected sensors."""

    routing: RoutingCostModel

    def __post_init__(self) -> None:
        # Maps a waiting sensor id to its current path parent id.
        self._path_parent: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_waiting(self, sensor_id: int) -> bool:
        """Whether the sensor is currently paused behind a path parent."""
        return sensor_id in self._path_parent

    # ------------------------------------------------------------------
    # Per-period decision
    # ------------------------------------------------------------------
    def choose_path_parent(
        self,
        sensor: Sensor,
        destination: Vec2,
        neighbors: Sequence[Sensor],
    ) -> Optional[int]:
        """Pick the nearest neighbour that is ahead of the sensor, if any.

        "Ahead" means strictly closer to the sensor's current destination.
        Neighbours previously rejected because of a wait loop, and
        neighbours that are themselves waiting on this sensor, are skipped.
        """
        my_distance = sensor.position.distance_to(destination)
        candidates: List[Sensor] = []
        for nb in neighbors:
            if nb.sensor_id in sensor.rejected_path_parents:
                continue
            if self._path_parent.get(nb.sensor_id) == sensor.sensor_id:
                continue
            if nb.position.distance_to(destination) < my_distance - 1e-9:
                candidates.append(nb)
        if not candidates:
            return None
        best = min(candidates, key=lambda nb: sensor.position.distance_to(nb.position))
        return best.sensor_id

    def start_waiting(self, sensor: Sensor, path_parent_id: int) -> None:
        """Record that ``sensor`` pauses behind ``path_parent_id``."""
        self._path_parent[sensor.sensor_id] = path_parent_id

    def stop_waiting(self, sensor: Sensor) -> None:
        """The sensor resumes its own walk."""
        self._path_parent.pop(sensor.sensor_id, None)
        sensor.idle_periods = 0

    # ------------------------------------------------------------------
    # Loop detection
    # ------------------------------------------------------------------
    def check_for_loop(self, sensor: Sensor) -> bool:
        """Probe the path-parent chain for a wait loop.

        Emulates the ``PathParentInquiry`` message: it travels from the
        sensor along successive path parents; if it returns to the sensor a
        loop exists.  The message cost (one transmission per chain hop) is
        recorded against the routing model.  When a loop is found the sensor
        abandons (and black-lists) its current path parent and resumes
        walking.  Returns ``True`` when a loop was detected.
        """
        start_id = sensor.sensor_id
        current = self._path_parent.get(start_id)
        hops = 0
        visited = set()
        loop_found = False
        while current is not None and hops < len(self._path_parent) + 1:
            hops += 1
            if current == start_id:
                loop_found = True
                break
            if current in visited:
                # A loop exists further up the chain but does not include
                # this sensor; it keeps waiting (the looping sensors will
                # detect it themselves).
                break
            visited.add(current)
            current = self._path_parent.get(current)
        if hops:
            self.routing.record_one_hop(MessageType.PATH_PARENT_INQUIRY, hops)
        if loop_found:
            rejected = self._path_parent.get(start_id)
            if rejected is not None:
                sensor.rejected_path_parents.add(rejected)
            self.stop_waiting(sensor)
        return loop_found

    def should_check_for_loop(self, sensor: Sensor) -> bool:
        """Whether the sensor has been idle long enough to probe for loops."""
        return (
            self.is_waiting(sensor.sensor_id)
            and sensor.idle_periods >= _LOOP_CHECK_IDLE_PERIODS
        )

    # ------------------------------------------------------------------
    # Full per-period decision for a disconnected sensor
    # ------------------------------------------------------------------
    def advance_toward_connection(
        self,
        sensor: Sensor,
        destination: Vec2,
        neighbors: Sequence[Sensor],
        plan_path,
    ) -> None:
        """One period of a disconnected sensor's walk toward ``destination``.

        The lazy decision is re-evaluated every period: if some neighbour is
        currently ahead (and usable as a path parent) the sensor pauses for
        this period; otherwise it resumes its own walk.  A sensor that has
        been pausing for several consecutive periods probes its path-parent
        chain for a wait loop.  ``plan_path`` is a zero-argument callable
        returning a fresh :class:`~repro.mobility.Bug2Path` toward the
        destination, used when the sensor has no active path.
        """
        candidate = self.choose_path_parent(sensor, destination, neighbors)
        if candidate is not None:
            self.start_waiting(sensor, candidate)
            sensor.idle_periods += 1
            if self.should_check_for_loop(sensor):
                self.check_for_loop(sensor)
            return
        if self.is_waiting(sensor.sensor_id):
            self.stop_waiting(sensor)
        if not sensor.motion.has_path:
            sensor.motion.follow(plan_path())
        sensor.motion.advance_along_path()
        sensor.idle_periods = 0
