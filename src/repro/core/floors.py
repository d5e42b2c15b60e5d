"""Floor geometry for the FLOOR scheme (Section 5).

The field is divided into horizontal *floors* of common height ``2 * rs``.
The *floor line* of a floor is its horizontal centre line; sensors are
encouraged to sit on floor lines so that vertically adjacent sensors do not
overlap their sensing disks.  The *inter-floor line* lies midway between two
neighbouring floor lines (i.e. on the floor boundaries) and is used by the
IFLG expansion to detect horizontal coverage holes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..field import Field
from ..geometry import Vec2

__all__ = ["FloorGeometry"]


@dataclass(frozen=True)
class FloorGeometry:
    """Floor lines of a field divided into floors of height ``2 * rs``."""

    sensing_range: float
    field_height: float
    field_width: float

    def __post_init__(self) -> None:
        if self.sensing_range <= 0:
            raise ValueError("sensing range must be positive")
        if self.field_height <= 0 or self.field_width <= 0:
            raise ValueError("field dimensions must be positive")
        #: The floor-line ordinates by floor index, computed once for the
        #: coverage queries' floor filter.
        object.__setattr__(
            self,
            "floor_line_ys",
            tuple(self.floor_line_y(i) for i in range(self.floor_count)),
        )

    @staticmethod
    def for_field(field: Field, sensing_range: float) -> "FloorGeometry":
        """Floor geometry spanning an entire field."""
        return FloorGeometry(
            sensing_range=sensing_range,
            field_height=field.height,
            field_width=field.width,
        )

    # ------------------------------------------------------------------
    # Basic quantities
    # ------------------------------------------------------------------
    @property
    def floor_height(self) -> float:
        """Height of one floor: ``2 * rs``."""
        return 2.0 * self.sensing_range

    @property
    def floor_count(self) -> int:
        """Number of floors needed to span the field height."""
        return max(1, math.ceil(self.field_height / self.floor_height - 1e-9))

    # ------------------------------------------------------------------
    # Floor lines
    # ------------------------------------------------------------------
    def floor_line_y(self, index: int) -> float:
        """The y coordinate of the ``index``-th floor line (index from 0).

        Floor ``k`` spans ``[2*rs*k, 2*rs*(k+1)]`` so its centre line is at
        ``(2k + 1) * rs``.  The last floor line is clamped inside the field
        when the height is not an exact multiple of the floor height.
        """
        if index < 0:
            raise ValueError("floor index must be non-negative")
        y = (2 * index + 1) * self.sensing_range
        return min(y, self.field_height)

    def floor_index(self, y: float) -> int:
        """Index of the floor containing the y coordinate."""
        clamped = min(max(y, 0.0), self.field_height)
        idx = int(clamped // (2.0 * self.sensing_range))
        return min(idx, len(self.floor_line_ys) - 1)

    def nearest_floor_line(self, y: float) -> float:
        """``FloorLine(y)``: the y coordinate of the nearest floor line.

        This is the function used by Algorithm 1 of the paper to pick the
        first intermediate destination of a connecting sensor.
        """
        idx = self.floor_index(y)
        candidates = [self.floor_line_y(idx)]
        if idx > 0:
            candidates.append(self.floor_line_y(idx - 1))
        if idx + 1 < self.floor_count:
            candidates.append(self.floor_line_y(idx + 1))
        return min(candidates, key=lambda line: abs(line - y))

    # ------------------------------------------------------------------
    # Inter-floor lines
    # ------------------------------------------------------------------
    def inter_floor_line_above(self, floor_index: int) -> Optional[float]:
        """The inter-floor line above the given floor (``None`` at the top)."""
        y = 2.0 * self.sensing_range * (floor_index + 1)
        if y >= self.field_height - 1e-9:
            return None
        return y

    def inter_floor_line_below(self, floor_index: int) -> Optional[float]:
        """The inter-floor line below the given floor (``None`` at the bottom)."""
        if floor_index <= 0:
            return None
        return 2.0 * self.sensing_range * floor_index

    # ------------------------------------------------------------------
    # Queries used by the expansion logic
    # ------------------------------------------------------------------
    def floors_possibly_covering(self, point: Vec2, sensing_range: float) -> List[int]:
        """Floor indices whose members could cover ``point``.

        A sensor on floor line ``y_f`` reaches the point only when
        ``|y_f - point.y| <= rs``; the result lists the floors that satisfy
        this, which is what a querying sensor sends coverage queries to.
        """
        reach = sensing_range + 1e-9
        return [
            idx
            for idx, y in enumerate(self.floor_line_ys)
            if abs(y - point.y) <= reach
        ]
