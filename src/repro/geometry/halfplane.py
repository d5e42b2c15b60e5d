"""Half-plane clipping, used to construct Voronoi cells.

A Voronoi cell of a site ``s`` within a bounded field is the intersection of
the field rectangle with the half-planes ``{p : |p - s| <= |p - q|}`` for
every other site ``q``.  Clipping a convex polygon against such a half-plane
is the Sutherland–Hodgman step implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .vec import EPS, Vec2

__all__ = ["HalfPlane", "clip_polygon", "bisector_halfplane"]


@dataclass(frozen=True)
class HalfPlane:
    """The set of points ``p`` with ``normal · p <= offset``."""

    normal: Vec2
    offset: float

    def contains(self, p: Vec2, eps: float = EPS) -> bool:
        """Whether ``p`` satisfies the half-plane inequality."""
        return self.normal.dot(p) <= self.offset + eps

    def signed_distance(self, p: Vec2) -> float:
        """Positive outside the half-plane, negative inside (scaled by |normal|)."""
        return self.normal.dot(p) - self.offset

    def line_intersection(self, a: Vec2, b: Vec2) -> Optional[Vec2]:
        """Intersection of the boundary line with segment ``[a, b]``."""
        da = self.signed_distance(a)
        db = self.signed_distance(b)
        denom = da - db
        if abs(denom) <= EPS:
            return None
        t = da / denom
        if t < -EPS or t > 1 + EPS:
            return None
        return a.lerp(b, min(1.0, max(0.0, t)))


def bisector_halfplane(site: Vec2, other: Vec2) -> HalfPlane:
    """Half-plane of points at least as close to ``site`` as to ``other``.

    ``|p - site|^2 <= |p - other|^2`` rearranges to a linear inequality
    ``2 (other - site) · p <= |other|^2 - |site|^2``.  The inequality is
    normalised so the normal is a unit vector: ``signed_distance`` is then
    the actual Euclidean distance to the bisector line, and epsilon
    tolerances in ``contains`` mean the same thing whatever the distance
    between the two sites.
    """
    normal = (other - site) * 2.0
    offset = other.norm_sq() - site.norm_sq()
    scale = normal.norm()
    if scale > EPS:
        normal = normal / scale
        offset = offset / scale
    return HalfPlane(normal, offset)


def clip_polygon(polygon: Sequence[Vec2], half_plane: HalfPlane) -> List[Vec2]:
    """Clip a convex polygon (list of vertices) against a half-plane.

    Implements one pass of Sutherland–Hodgman.  Returns the (possibly empty)
    clipped vertex list in the original winding order.
    """
    vertices = list(polygon)
    if not vertices:
        return []
    result: List[Vec2] = []
    n = len(vertices)
    for i in range(n):
        current = vertices[i]
        nxt = vertices[(i + 1) % n]
        current_inside = half_plane.contains(current)
        next_inside = half_plane.contains(nxt)
        if current_inside:
            result.append(current)
            if not next_inside:
                crossing = half_plane.line_intersection(current, nxt)
                if crossing is not None:
                    result.append(crossing)
        elif next_inside:
            crossing = half_plane.line_intersection(current, nxt)
            if crossing is not None:
                result.append(crossing)
    # Remove consecutive duplicates that clipping can introduce.
    deduped: List[Vec2] = []
    for p in result:
        if not deduped or not p.almost_equals(deduped[-1]):
            deduped.append(p)
    if len(deduped) >= 2 and deduped[0].almost_equals(deduped[-1]):
        deduped.pop()
    return deduped

