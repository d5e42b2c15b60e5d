"""Low-overhead telemetry: spans, counters, gauges and run-attached records.

See ``docs/observability.md`` for the API and the overhead contract.
"""

from .summary import PhaseStat, TelemetrySummary, TracePoint, merge_summaries
from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "PhaseStat",
    "TelemetrySummary",
    "TracePoint",
    "merge_summaries",
]
