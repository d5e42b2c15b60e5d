"""The declarative scenario specification.

A :class:`ScenarioSpec` is a frozen, JSON-serializable description of one
simulation setting: the field (by registered layout name plus parameters),
the initial-placement strategy (by registered name), the population, radio
and kinematic parameters, the scheme settings (FLOOR's invitation TTL,
CPVF's oscillation factor) and the seed.  It is the one home of each of
these: :meth:`ScenarioSpec.build_config` keeps only what the world reads,
and the scheme adapters read the scheme settings from the spec itself.
It builds a ready-to-run :class:`~repro.sim.world.World` in **one pass** —
the initial positions are drawn exactly once, from the world's own RNG
stream, by the registered placement strategy.

Example::

    from repro.api import ScenarioSpec

    spec = ScenarioSpec(
        field_size=500.0,
        layout="two-obstacle",
        sensor_count=80,
        communication_range=60.0,
        sensing_range=40.0,
        duration=250.0,
        seed=7,
    )
    world = spec.build_world()
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..determinism import Params, freeze_params
from ..field import Field
from ..geometry import Vec2
from ..sim import LifecycleEvent, SimulationConfig, World, normalize_events
from .registry import layout_registry, placement_registry

__all__ = ["ScenarioSpec", "thaw_params"]


def thaw_params(params: Params) -> Dict[str, Any]:
    """The frozen parameter tuple as a plain dict."""
    return dict(params)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, immutable description of one simulation setting."""

    #: Side length of the square field in metres.
    field_size: float = 1000.0
    #: Registered field-layout name (see :data:`repro.api.layout_registry`).
    layout: str = "obstacle-free"
    #: Extra parameters for the layout builder (e.g. the random-obstacle seed).
    layout_params: Params = ()
    #: Registered initial-placement strategy name.
    placement: str = "clustered"
    #: Extra parameters for the placement strategy.
    placement_params: Params = ()
    #: Number of mobile sensors.
    sensor_count: int = 240
    #: Communication range ``rc`` in metres.
    communication_range: float = 60.0
    #: Sensing range ``rs`` in metres.
    sensing_range: float = 40.0
    #: Maximum moving speed ``V`` in metres per second.
    max_speed: float = 2.0
    #: Period length ``T`` in seconds.
    period: float = 1.0
    #: Simulation horizon in seconds.
    duration: float = 750.0
    #: Coverage-grid resolution in metres.
    coverage_resolution: float = 10.0
    #: Seed of the run's random stream (placement, invitation walks, ...).
    seed: int = 1
    #: FLOOR invitation random-walk TTL (``None`` = the paper's ``0.2 N``).
    invitation_ttl: Optional[int] = None
    #: CPVF oscillation-avoidance factor (``None`` disables avoidance).
    oscillation_delta: Optional[float] = None
    #: CPVF oscillation-avoidance rule: "one-step" or "two-step".
    oscillation_mode: str = "one-step"
    #: Lifecycle event timeline (fault injection); empty = a static run
    #: that takes exactly the pre-lifecycle code paths.
    events: Tuple[LifecycleEvent, ...] = ()

    def __post_init__(self) -> None:
        # Accept plain dicts at construction time; store frozen tuples.
        object.__setattr__(self, "layout_params", freeze_params(self.layout_params))
        object.__setattr__(
            self, "placement_params", freeze_params(self.placement_params)
        )
        object.__setattr__(self, "events", normalize_events(self.events))

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def build_config(self) -> SimulationConfig:
        """The scalar simulation configuration the world reads."""
        return SimulationConfig(
            sensor_count=self.sensor_count,
            communication_range=self.communication_range,
            sensing_range=self.sensing_range,
            max_speed=self.max_speed,
            period=self.period,
            duration=self.duration,
            coverage_resolution=self.coverage_resolution,
            seed=self.seed,
        )

    def build_field(self) -> Field:
        """The field built by the registered layout (raises on unknown names)."""
        builder = layout_registry.get(self.layout)
        return builder(self.field_size, **thaw_params(self.layout_params))

    def placement_strategy(self):
        """The placement as a ``(config, field, rng) -> positions`` callable."""
        strategy = placement_registry.get(self.placement)
        params = thaw_params(self.placement_params)
        return partial(strategy, **params) if params else strategy

    def initial_positions(self, field: Optional[Field] = None) -> List[Vec2]:
        """The initial positions this scenario's world starts from.

        Deterministic: the same draw ``build_world`` performs (the first
        consumption of the ``seed`` stream), so baselines that need the raw
        starting layout (explosion, Hungarian bounds) see exactly the
        positions a simulated world would.
        """
        import random

        if field is None:
            field = self.build_field()
        rng = random.Random(self.seed)
        return self.placement_strategy()(self.build_config(), field, rng)

    def build_world(self, field: Optional[Field] = None) -> World:
        """A ready-to-run world; sensor positions are drawn exactly once."""
        if field is None:
            field = self.build_field()
        return World.create(
            self.build_config(), field, placement=self.placement_strategy()
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def replace(self, **overrides) -> "ScenarioSpec":
        """A copy with some fields replaced."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (round-trips through :meth:`from_dict`)."""
        data = dataclasses.asdict(self)
        data["layout_params"] = thaw_params(self.layout_params)
        data["placement_params"] = thaw_params(self.placement_params)
        data["events"] = [event.to_dict() for event in self.events]
        return data

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return ScenarioSpec(**data)
