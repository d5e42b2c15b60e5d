"""The OPT strip-based deployment pattern (Bai et al., MobiHoc'06).

Bai et al. prove that, in an obstacle-free plane, placing sensors in
horizontal strips with intra-strip spacing ``d1 = min(rc, sqrt(3) * rs)``
and inter-strip spacing ``d2 = rs + sqrt(rs^2 - d1^2 / 4)`` (strips offset
by ``d1 / 2``, plus one vertical connecting column) achieves asymptotically
optimal coverage with one-connectivity.  The paper uses this centralised
pattern as the coverage upper baseline (Fig 9) and as a target layout for
the Hungarian moving-distance lower bound (Fig 11).

The pattern is only defined for obstacle-free rectangular fields, exactly
as in the paper's evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..field import Field
from ..geometry import Vec2

__all__ = ["OptStripPattern"]


@dataclass
class OptStripPattern:
    """Generates OPT pattern positions for a given field and radio ranges."""

    field: Field
    communication_range: float
    sensing_range: float

    def __post_init__(self) -> None:
        if self.field.obstacles:
            raise ValueError("the OPT strip pattern requires an obstacle-free field")
        if self.communication_range <= 0 or self.sensing_range <= 0:
            raise ValueError("ranges must be positive")

    # ------------------------------------------------------------------
    # Pattern geometry
    # ------------------------------------------------------------------
    @property
    def intra_strip_spacing(self) -> float:
        """Horizontal spacing ``d1 = min(rc, sqrt(3) * rs)``."""
        return min(self.communication_range, math.sqrt(3.0) * self.sensing_range)

    @property
    def inter_strip_spacing(self) -> float:
        """Vertical spacing ``d2 = rs + sqrt(rs^2 - d1^2 / 4)``."""
        d1 = self.intra_strip_spacing
        inner = self.sensing_range**2 - (d1**2) / 4.0
        return self.sensing_range + math.sqrt(max(0.0, inner))

    def full_pattern_positions(self) -> List[Vec2]:
        """All pattern positions needed to cover the field.

        Positions are generated strip by strip from the bottom, each strip
        filled left to right, alternate strips offset by ``d1 / 2``; a
        vertical column of connector nodes along the left edge links the
        strips so the pattern is one-connected for any ``rc``.
        """
        d1 = self.intra_strip_spacing
        d2 = self.inter_strip_spacing
        width, height = self.field.width, self.field.height
        positions: List[Vec2] = []

        strip_count = int(math.ceil(height / d2))
        for row in range(strip_count):
            y = min(height, d2 / 2.0 + row * d2)
            offset = (d1 / 2.0) if row % 2 == 1 else 0.0
            x = offset + d1 / 2.0
            while x <= width:
                positions.append(Vec2(min(x, width), y))
                x += d1

        # Connector column along the left edge (spacing rc so it is itself
        # connected), linking consecutive strips when d2 > rc.
        if d2 > self.communication_range:
            y = self.communication_range
            while y < height:
                positions.append(Vec2(d1 / 4.0, y))
                y += self.communication_range
        return positions

    def positions_for_count(self, count: int) -> List[Vec2]:
        """The first ``count`` pattern positions (strip-major order).

        When ``count`` exceeds the full pattern size the extra sensors are
        interleaved midway between existing pattern points (they add no
        coverage, matching the saturation the paper observes beyond ~300
        sensors).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        full = self.full_pattern_positions()
        if count <= len(full):
            return full[:count]
        extras: List[Vec2] = []
        i = 0
        while len(full) + len(extras) < count:
            base = full[i % len(full)]
            extras.append(
                Vec2(
                    min(self.field.width, base.x + self.intra_strip_spacing / 2.0),
                    base.y,
                )
            )
            i += 1
        return full + extras
