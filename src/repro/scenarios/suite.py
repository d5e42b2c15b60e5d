"""The curated scenario suite.

A :class:`ScenarioSuite` is an ordered, named collection of scenario
recipes.  Each :class:`SuiteEntry` pins a registered layout + placement
combination (with parameters and a fixed seed) and materialises into a
:class:`~repro.api.scenario.ScenarioSpec` at any experiment scale, so the
same suite drives the smoke-test ``--check``, the ASCII gallery renderer
and the full ``gallery`` sweep experiment.

:data:`DEFAULT_SUITE` covers the paper's canonical fields plus every
generator family of :mod:`repro.scenarios.generators` crossed with
characteristic placements: mazes entered from a clustered start and from
a central hotspot, floorplans seeded on a lattice and along the
perimeter, a spiral with multiple drop clusters, and random clutter under
uniform and hotspot starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..api.scenario import ScenarioSpec
from ..determinism import Params, freeze_params

__all__ = ["SuiteEntry", "ScenarioSuite", "DEFAULT_SUITE"]


@dataclass(frozen=True)
class SuiteEntry:
    """One named scenario recipe: layout x placement (+ seed and ranges).

    An entry may also carry a *timeline*: the name of a curated lifecycle
    event script (:data:`repro.experiments.lifecycle.LIFECYCLE_SCRIPTS`).
    The script is materialised at spec time, scaled to the requested
    experiment scale, so the same entry injects its faults at the same
    *fraction* of the horizon whether it runs at smoke or paper scale.
    """

    name: str
    description: str
    layout: str
    placement: str
    layout_params: Params = ()
    placement_params: Params = ()
    #: Seed of the scenario's random stream (field generation uses the
    #: layout's own ``seed`` parameter inside ``layout_params``).
    seed: int = 1
    communication_range: float = 60.0
    sensing_range: float = 40.0
    #: Named lifecycle event script (``None`` = a static scenario).
    timeline: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "layout_params", freeze_params(self.layout_params))
        object.__setattr__(
            self, "placement_params", freeze_params(self.placement_params)
        )

    def events(self, scale):
        """The entry's lifecycle event timeline at an experiment scale."""
        if self.timeline is None:
            return ()
        # Imported lazily: the experiments package sits above scenarios in
        # the layering (it imports this module for the gallery sweep).
        from ..experiments.lifecycle import lifecycle_events

        return lifecycle_events(self.timeline, scale)

    def spec(self, scale) -> ScenarioSpec:
        """The entry as a :class:`ScenarioSpec` at an experiment scale.

        ``scale`` is any object with ``field_size``, ``sensor_count``,
        ``duration`` and ``coverage_resolution`` attributes —
        :class:`repro.experiments.common.ExperimentScale` in practice.
        """
        return ScenarioSpec(
            field_size=scale.field_size,
            layout=self.layout,
            layout_params=self.layout_params,
            placement=self.placement,
            placement_params=self.placement_params,
            sensor_count=scale.sensor_count,
            communication_range=self.communication_range,
            sensing_range=self.sensing_range,
            duration=scale.duration,
            coverage_resolution=scale.coverage_resolution,
            seed=self.seed,
            events=self.events(scale),
        )


class ScenarioSuite:
    """An ordered name -> :class:`SuiteEntry` collection."""

    def __init__(self, entries: Sequence[SuiteEntry]):
        self._entries: Dict[str, SuiteEntry] = {}
        for entry in entries:
            if entry.name in self._entries:
                raise ValueError(f"duplicate suite entry {entry.name!r}")
            self._entries[entry.name] = entry

    def names(self) -> List[str]:
        """Entry names in suite (presentation) order."""
        return list(self._entries)

    def get(self, name: str) -> SuiteEntry:
        """The entry called ``name`` (raises listing the alternatives)."""
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(
                f"unknown suite scenario {name!r}; available: {self.names()}"
            )
        return entry

    def specs(self, scale, names: Optional[Sequence[str]] = None) -> List[Tuple[SuiteEntry, ScenarioSpec]]:
        """Materialised ``(entry, spec)`` pairs, optionally a named subset."""
        selected = list(names) if names is not None else self.names()
        return [(self.get(name), self.get(name).spec(scale)) for name in selected]

    def __iter__(self) -> Iterator[SuiteEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScenarioSuite({self.names()})"


#: The curated suite: canonical paper fields plus every generator family
#: crossed with a characteristic placement.
DEFAULT_SUITE = ScenarioSuite(
    [
        SuiteEntry(
            "open-clustered",
            "the paper's canonical start: obstacle-free field, lower-left cluster",
            layout="obstacle-free",
            placement="clustered",
        ),
        SuiteEntry(
            "open-uniform",
            "obstacle-free field, sensors scattered uniformly",
            layout="obstacle-free",
            placement="uniform",
            seed=2,
        ),
        SuiteEntry(
            "two-obstacle-classic",
            "the Fig 3(c)/8(c) two-obstacle field with the clustered start",
            layout="two-obstacle",
            placement="clustered",
            seed=3,
        ),
        SuiteEntry(
            "corridor-squeeze",
            "narrow corridor splitting the field, clustered start",
            layout="corridor",
            placement="clustered",
            seed=4,
        ),
        SuiteEntry(
            "maze-quad",
            "4x4 recursive-backtracker maze entered from the clustered corner",
            layout="maze",
            layout_params={"seed": 7, "cells": 4},
            placement="clustered",
            seed=5,
        ),
        SuiteEntry(
            "maze-hotspot",
            "maze with sensors concentrated in a central hotspot",
            layout="maze",
            layout_params={"seed": 11, "cells": 4},
            placement="hotspot",
            placement_params={"spread": 0.12},
            seed=6,
        ),
        SuiteEntry(
            "rooms-grid",
            "3x3 multi-room floorplan seeded on a jittered lattice",
            layout="rooms",
            layout_params={"seed": 5},
            placement="grid",
            seed=7,
        ),
        SuiteEntry(
            "rooms-perimeter",
            "multi-room floorplan with sensors dropped along the boundary",
            layout="rooms",
            layout_params={"seed": 9, "rooms_x": 2, "rooms_y": 3},
            placement="perimeter",
            seed=8,
        ),
        SuiteEntry(
            "spiral-clusters",
            "two-ring spiral corridor with three drop clusters",
            layout="spiral",
            layout_params={"seed": 3, "rings": 2},
            placement="multi-cluster",
            placement_params={"clusters": 3},
            seed=9,
        ),
        SuiteEntry(
            "clutter-uniform",
            "random rectangular clutter (12% density), uniform start",
            layout="clutter",
            layout_params={"seed": 13},
            placement="uniform",
            seed=10,
        ),
        SuiteEntry(
            "clutter-hotspot",
            "denser clutter (15%) with an off-centre hotspot start",
            layout="clutter",
            layout_params={"seed": 21, "density": 0.15},
            placement="hotspot",
            placement_params={"spread": 0.1},
            seed=11,
        ),
        # Lifecycle (event-timeline) scenarios: the curated fault scripts
        # of the lifecycle experiment, pinned on characteristic fields so
        # `--check` validates the timelines and the gallery exercises the
        # churn paths alongside the static suite.
        SuiteEntry(
            "open-mass-failure",
            "open field where a fifth of the population dies mid-run",
            layout="obstacle-free",
            placement="clustered",
            seed=12,
            timeline="mass-failure",
        ),
        SuiteEntry(
            "open-door-slam",
            "open field crossed mid-run by a wall band that later clears",
            layout="obstacle-free",
            placement="clustered",
            seed=13,
            timeline="door-slam",
        ),
        SuiteEntry(
            "clutter-reinforcements",
            "random clutter with a kill wave then staged reinforcements",
            layout="clutter",
            layout_params={"seed": 27},
            placement="uniform",
            seed=14,
            timeline="reinforcements",
        ),
    ]
)
