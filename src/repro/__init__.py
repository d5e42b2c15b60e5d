"""repro — reproduction of "Connectivity-Guaranteed and Obstacle-Adaptive
Deployment Schemes for Mobile Sensor Networks" (Tan, Jarvis, Kermarrec).

The package is organised bottom-up:

* :mod:`repro.geometry`, :mod:`repro.field`, :mod:`repro.voronoi`,
  :mod:`repro.mobility`, :mod:`repro.network`, :mod:`repro.sensors`,
  :mod:`repro.sim` — the substrates (geometry, field/obstacle model,
  Voronoi cells, BUG2 path planning, unit-disk radio and connectivity
  tree, period-synchronous simulation engine);
* :mod:`repro.core` — the paper's contribution: the CPVF and FLOOR
  deployment schemes and their building blocks;
* :mod:`repro.spatial` — the shared fast paths (cell-hash spatial index,
  epoch-based neighbor cache, incremental coverage tracking) the hot
  queries above are built on;
* :mod:`repro.baselines`, :mod:`repro.assignment` — the evaluation
  baselines (OPT strip pattern, VOR, Minimax, Hungarian bounds);
* :mod:`repro.metrics`, :mod:`repro.experiments`, :mod:`repro.viz` — the
  evaluation machinery reproducing every table and figure of the paper.

Quick start — a :class:`ScenarioSpec` describes the run (field layout,
placement, population, ranges, seed, scheme settings) and builds the
world; the engine drives a scheme over it::

    from repro import FloorScheme, ScenarioSpec, SimulationEngine

    spec = ScenarioSpec(field_size=500.0, sensor_count=60, duration=200.0)
    result = SimulationEngine(spec.build_world(), FloorScheme()).run()
    print(f"coverage: {result.final_coverage:.1%}")
"""

from .geometry import Polygon, Segment, Vec2
from .field import (
    Field,
    Obstacle,
    corridor_field,
    obstacle_free_field,
    two_obstacle_field,
)
from .mobility import Bug2Planner, Bug2Path, Handedness, MotionModel
from .network import ConnectivityTree, MessageStats, MessageType
from .sensors import Sensor, SensorState
from .sim import (
    DeploymentScheme,
    SimulationConfig,
    SimulationEngine,
    SimulationResult,
    World,
)
from .core import (
    CPVFScheme,
    FloorGeometry,
    FloorScheme,
    OscillationAvoidance,
    VirtualForceModel,
)
from .baselines import MinimaxScheme, OptStripPattern, VorScheme, explode
from .assignment import hungarian, minimum_distance_matching
from .metrics import (
    EmpiricalCDF,
    positions_are_connected,
    summarize_sensor_distances,
)
from .spatial import IncrementalCoverage, NeighborCache, SpatialIndex
from .voronoi import diagram_is_correct
from .api import (
    RunRecord,
    RunSpec,
    ScenarioSpec,
    SweepRunner,
    SweepSpec,
    execute_run,
    register_layout,
    register_placement,
    register_scheme,
)
from .scenarios import (
    DEFAULT_SUITE,
    ScenarioSuite,
    ScenarioValidator,
    scenario_fingerprint,
)

__version__ = "1.0.0"

__all__ = [
    "Polygon",
    "Segment",
    "Vec2",
    "Field",
    "Obstacle",
    "corridor_field",
    "obstacle_free_field",
    "two_obstacle_field",
    "Bug2Planner",
    "Bug2Path",
    "Handedness",
    "MotionModel",
    "ConnectivityTree",
    "MessageStats",
    "MessageType",
    "Sensor",
    "SensorState",
    "DeploymentScheme",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationResult",
    "World",
    "CPVFScheme",
    "FloorGeometry",
    "FloorScheme",
    "OscillationAvoidance",
    "VirtualForceModel",
    "MinimaxScheme",
    "OptStripPattern",
    "VorScheme",
    "explode",
    "hungarian",
    "minimum_distance_matching",
    "EmpiricalCDF",
    "positions_are_connected",
    "summarize_sensor_distances",
    "IncrementalCoverage",
    "NeighborCache",
    "SpatialIndex",
    "diagram_is_correct",
    "ScenarioSpec",
    "RunSpec",
    "RunRecord",
    "SweepSpec",
    "SweepRunner",
    "execute_run",
    "register_scheme",
    "register_layout",
    "register_placement",
    "DEFAULT_SUITE",
    "ScenarioSuite",
    "ScenarioValidator",
    "scenario_fingerprint",
    "__version__",
]
