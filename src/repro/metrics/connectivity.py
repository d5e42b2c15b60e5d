"""Connectivity metrics.

The paper's schemes guarantee connectivity to a base station; the VD-based
baselines do not, and Fig 10 flags their runs as "Disconn." when the sensor
graph falls apart.  These helpers check connectivity of arbitrary position
snapshots (with or without a base station) using a plain union-find, so they
work for scheme outputs that are not backed by a :class:`~repro.sim.World`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry import Vec2
from ..network import LINK_EPS
from ..spatial import SpatialIndex

__all__ = ["positions_are_connected", "connected_components"]


class _UnionFind:
    """Minimal union-find over integer indices."""

    def __init__(self, size: int):
        self._parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def _build_union(
    positions: Sequence[Vec2], communication_range: float
) -> _UnionFind:
    uf = _UnionFind(len(positions))
    r = communication_range + LINK_EPS
    points = np.array([(p.x, p.y) for p in positions], dtype=float)
    index = SpatialIndex(r * 1.001).build(points)
    ii, jj, _ = index.pairs_within(r)
    for i, j in zip(ii.tolist(), jj.tolist()):
        uf.union(i, j)
    return uf


def connected_components(
    positions: Sequence[Vec2], communication_range: float
) -> List[List[int]]:
    """Connected components of the unit-disk graph over ``positions``."""
    if not positions:
        return []
    uf = _build_union(positions, communication_range)
    groups: Dict[int, List[int]] = {}
    for i in range(len(positions)):
        groups.setdefault(uf.find(i), []).append(i)
    return list(groups.values())


def positions_are_connected(
    positions: Sequence[Vec2],
    communication_range: float,
    base_station: Optional[Vec2] = None,
) -> bool:
    """Whether the unit-disk graph over ``positions`` is connected.

    When ``base_station`` is given it is added as an extra node, so the
    check becomes "every sensor can reach the base station".
    """
    if not positions:
        return True
    nodes = list(positions)
    if base_station is not None:
        nodes = nodes + [base_station]
    components = connected_components(nodes, communication_range)
    return len(components) == 1
