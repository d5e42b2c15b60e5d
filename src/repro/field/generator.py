"""Random obstacle generation for the Fig 13 experiment.

Section 6.4: "We randomly select between 1 and 4 rectangular obstacles of
random size; these obstacles may overlap with one another, however we
maintain the condition that the obstacles do not partition the field."

The generator draws rectangles with sides in a configurable range, rejects
layouts that disconnect the free space or swallow the base station, and
retries until a valid layout is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..geometry import Vec2
from .field import Field
from .layouts import FIELD_SIZE
from .obstacles import Obstacle

__all__ = ["RandomObstacleConfig", "generate_random_obstacle_field"]


@dataclass
class RandomObstacleConfig:
    """Parameters of the random obstacle generator.

    The defaults correspond to the Fig 13 setting: 1-4 rectangular obstacles
    of random size inside a 1000 x 1000 m field, never partitioning the
    field and never covering the base station at the origin.
    """

    field_size: float = FIELD_SIZE
    min_obstacles: int = 1
    max_obstacles: int = 4
    min_side: float = 80.0
    max_side: float = 400.0
    keep_clear_radius: float = 60.0
    connectivity_resolution: float = 25.0
    max_attempts: int = 200


def _random_rectangle(rng, config: RandomObstacleConfig) -> Obstacle:
    """Draw one random axis-aligned rectangular obstacle."""
    width = rng.uniform(config.min_side, config.max_side)
    height = rng.uniform(config.min_side, config.max_side)
    xmin = rng.uniform(0.0, config.field_size - width)
    ymin = rng.uniform(0.0, config.field_size - height)
    return Obstacle.rectangle(xmin, ymin, xmin + width, ymin + height)


def _clears_base_station(obstacle: Obstacle, config: RandomObstacleConfig) -> bool:
    """Whether the obstacle keeps away from the base station at the origin."""
    return obstacle.distance_to(Vec2(0.0, 0.0)) >= config.keep_clear_radius


def generate_random_obstacle_field(
    rng,
    config: Optional[RandomObstacleConfig] = None,
    *,
    validator: Callable[[Field], bool],
) -> Field:
    """Generate a random-obstacle field whose free space remains connected.

    ``validator`` is the acceptance predicate of the rejection loop:
    :meth:`repro.scenarios.ScenarioValidator.accepts`, which requires one
    connected free region that the base station sits in.

    Raises :class:`RuntimeError` if no valid layout is found within
    ``config.max_attempts`` attempts (which practically never happens with
    the default parameters).
    """
    cfg = config or RandomObstacleConfig()
    for _ in range(cfg.max_attempts):
        count = rng.randint(cfg.min_obstacles, cfg.max_obstacles)
        obstacles: List[Obstacle] = []
        ok = True
        for _ in range(count):
            for _ in range(cfg.max_attempts):
                candidate = _random_rectangle(rng, cfg)
                if _clears_base_station(candidate, cfg):
                    obstacles.append(candidate)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        candidate_field = Field(cfg.field_size, cfg.field_size, obstacles)
        if validator(candidate_field):
            return candidate_field
    raise RuntimeError("failed to generate a connected random-obstacle field")
