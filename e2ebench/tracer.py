"""Per-layer tracing from outside the program.

:class:`Tracer` swaps public functions of each layer for timing wrappers
while a traced run executes, and restores them afterwards; nothing in
the program changes.  Every wrapper records the enclosing traced call as
its parent.  Calls are aggregated per name into count, total (outermost
calls only, so recursion and nested targets of one name are not counted
twice) and self time (minus the time of traced calls made inside it),
so memory stays bounded.  Only the durations of scheme steps, a few
hundred per run, are kept one by one.

A target that no longer exists is skipped and listed in
:attr:`Tracer.missing`; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

_FORCE_METHODS = (
    "direction",
    "resultant",
    "force_from_obstacles",
    "obstacle_only_force",
    "boundary_force_xy",
    "boundary_force_arrays",
    "sensor_force_sums",
    "sensor_force_sums_symmetric",
)
_REPAIR_METHODS = (
    "_try_parent_change",
    "_try_parent_change_batched",
    "_repair_grouped",
    "_repair_blocked",
)

#: Metric name -> the functions timed under it, as ``module:Class.attr``.
#: A target is also wrapped on every subclass that overrides it.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "sim.step": ("repro.sim.engine:DeploymentScheme.step",),
    "sim.fault_injection": (
        "repro.sim.lifecycle:FaultInjector.fire",
        "repro.sim.lifecycle:FaultInjector.observe",
    ),
    "cpvf.forces": tuple(
        f"repro.core.virtual_force:VirtualForceModel.{m}" for m in _FORCE_METHODS
    ),
    "cpvf.repair": tuple(f"repro.core.cpvf:CPVFScheme.{m}" for m in _REPAIR_METHODS),
    "floor.expansion_points": (
        "repro.core.expansion:ExpansionPlanner.expansion_points",
    ),
    "floor.registry_covered": ("repro.core.headers:FloorRegistry.is_point_covered",),
    "field.is_free": ("repro.field.field:Field.is_free",),
    "field.segment_blocked": ("repro.field.field:Field.segment_blocked",),
    "field.max_free_travel": ("repro.field.field:Field.max_free_travel",),
    "field.max_free_travel_batch": ("repro.field.field:Field.max_free_travel_batch",),
    "field.first_obstacle_hit": ("repro.field.field:Field.first_obstacle_hit",),
    "field.nearest_free": ("repro.field.field:Field.nearest_free",),
    "field.obstacle_writes": (
        "repro.field.field:Field.add_obstacle",
        "repro.field.field:Field.remove_obstacle",
    ),
    "geometry.polygon_contains": ("repro.geometry.polygon:Polygon.contains",),
    "geometry.blocks_segment": (
        "repro.geometry.polygon:Polygon.segment_crosses_interior",
    ),
    "spatial.query_radius": ("repro.spatial.index:SpatialIndex.query_radius",),
    "spatial.neighbor_table": ("repro.spatial.cache:NeighborCache.neighbor_table",),
    "spatial.index_build": ("repro.spatial.index:SpatialIndex.build",),
    "spatial.coverage_update": ("repro.spatial.coverage:IncrementalCoverage.update",),
    "mobility.bug2_plan": ("repro.mobility.bug2:Bug2Planner.plan",),
    "network.protocol_table": (
        "repro.network.conditions:NetworkModel.neighbor_table",
        "repro.network.conditions:NetworkModel.neighbor_rows",
    ),
}

#: The name whose call durations are also kept one by one.
STEP_NAME = "sim.step"


def subclasses(cls) -> Iterator[type]:
    """``cls`` and all its subclasses, each once."""
    seen = set()
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        yield current
        pending.extend(current.__subclasses__())


def resolve(target: str) -> List[Tuple[type, str, object]]:
    """``[(class, attr, function), ...]`` for a ``module:Class.attr`` target."""
    module_name, qualified = target.split(":")
    class_name, attr = qualified.split(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    base = getattr(module, class_name, None)
    if not isinstance(base, type):
        return []
    found = []
    for cls in subclasses(base):
        fn = cls.__dict__.get(attr)
        if inspect.isfunction(fn):
            found.append((cls, attr, fn))
    return found


class Tracer:
    """Timing wrappers around :data:`TARGETS`, installed for one run."""

    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in TARGETS}
        #: Duration in seconds of every :data:`STEP_NAME` call.
        self.steps: List[float] = []
        self.missing: List[str] = []
        self._stack: List[List] = []
        self._depth: Dict[str, int] = {name: 0 for name in TARGETS}
        self._patches: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        for name, targets in TARGETS.items():
            for target in targets:
                found = resolve(target)
                if not found:
                    self.missing.append(target)
                for cls, attr, fn in found:
                    setattr(cls, attr, self._wrap(name, fn))
                    self._patches.append((cls, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, fn = self._patches.pop()
            setattr(cls, attr, fn)

    def _wrap(self, name: str, fn):
        stack = self._stack
        stat = self.stats[name]
        depth = self._depth
        steps = self.steps if name == STEP_NAME else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0]  # time of traced calls made inside this one
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                stat[0] += 1
                stat[2] += elapsed - frame[0]
                if not depth[name]:
                    stat[1] += elapsed
                if parent is not None:
                    parent[0] += elapsed
                if steps is not None:
                    steps.append(elapsed)

        return traced
