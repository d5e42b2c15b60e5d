"""Evaluation metrics: moving distance, connectivity, recovery, CDFs.

Coverage, the paper's main metric, is measured by the field itself
(:meth:`repro.field.Field.coverage_fraction`) and, along a run, by the
world's incremental tracker (:class:`repro.spatial.IncrementalCoverage`
behind ``World.coverage()``).
"""

from .cdf import EmpiricalCDF
from .connectivity import connected_components, positions_are_connected
from .distance import DistanceSummary, summarize_distances, summarize_sensor_distances
from .recovery import EventOutcome, RecoveryTracker

__all__ = [
    "EventOutcome",
    "RecoveryTracker",
    "EmpiricalCDF",
    "connected_components",
    "positions_are_connected",
    "DistanceSummary",
    "summarize_distances",
    "summarize_sensor_distances",
]
