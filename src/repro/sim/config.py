"""Simulation configuration.

The default values follow Section 4.3 / 6 of the paper: a 1000 x 1000 m
field, 240 sensors initially clustered in the 500 x 500 m lower-left
quadrant, base station at the origin, maximum speed 2 m/s, one-second
periods and a 750-second horizon, with ``rc`` and ``rs`` between 30 and
60 m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geometry import Vec2

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """The scalar parameters the simulated world reads.

    Scheme settings (FLOOR's invitation TTL, CPVF's oscillation factor)
    and the initial placement live on
    :class:`~repro.api.scenario.ScenarioSpec` and the scheme constructors.
    """

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
    #: Simulation horizon in seconds (the paper runs 750 s).
    duration: float = 750.0
    #: Base-station / reference-point location ``O``.
    base_station: Vec2 = field(default=Vec2(0.0, 0.0))
    #: Grid resolution (metres) used when measuring coverage.
    coverage_resolution: float = 10.0
    #: Random seed for reproducibility.
    seed: int = 1

    @property
    def max_periods(self) -> int:
        """Number of decision periods in the simulation horizon."""
        return int(round(self.duration / self.period))

    @property
    def max_step(self) -> float:
        """Maximum step size ``V * T`` in metres."""
        return self.max_speed * self.period
