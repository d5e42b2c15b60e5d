"""Recovery metrics for fault-injection events.

Every lifecycle event (sensor deaths, injections, obstacle changes) opens
a measurement window.  The tracker observes the world once per period and
derives the three robustness metrics the lifecycle experiments report:

* **time to recover** — periods until coverage returns to
  :data:`RECOVERY_TARGET` (95%) of its pre-event level;
* **extra moving distance** — total odometer accumulated between the
  event and recovery (or the horizon, when coverage never recovers);
* **message burst** — transmissions in the post-event window minus the
  same-length window before the event (the steady-state baseline).

Trackers consume plain scalars; the engine's fault injector feeds them
once per period for every scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

__all__ = ["BURST_WINDOW", "EventOutcome", "RECOVERY_TARGET", "RecoveryTracker"]

#: Fraction of the pre-event coverage that counts as recovered.
RECOVERY_TARGET = 0.95
#: Length, in periods, of the message-burst windows after and before an
#: event.
BURST_WINDOW = 25


@dataclass(frozen=True)
class EventOutcome:
    """Measured aftermath of one lifecycle event."""

    #: Period at which the event fired.
    at_period: int
    #: Event kind (``failure`` / ``join`` / ``obstacle`` / ``clear-obstacle``).
    kind: str
    #: Coverage fraction measured immediately before the event.
    pre_coverage: float
    #: Coverage fraction measured immediately after applying the event.
    post_coverage: float
    #: Best coverage observed during the measurement window.
    best_coverage: float
    #: Coverage at the last observation.
    final_coverage: float
    #: ``best_coverage / pre_coverage`` (1.0 when there was nothing to lose).
    recovery_ratio: float
    #: Recovery threshold as a fraction of ``pre_coverage``.
    recovery_target: float
    #: Periods from the event until coverage first reached the target
    #: (``None`` when it never did within the horizon).
    time_to_recover: Optional[int]
    #: Odometer accumulated (all sensors) between event and recovery/horizon.
    extra_distance: float
    #: Post-event window transmissions minus the pre-event baseline window.
    message_burst: int

    def to_dict(self) -> dict:
        return {
            "at_period": self.at_period,
            "kind": self.kind,
            "pre_coverage": self.pre_coverage,
            "post_coverage": self.post_coverage,
            "best_coverage": self.best_coverage,
            "final_coverage": self.final_coverage,
            "recovery_ratio": self.recovery_ratio,
            "recovery_target": self.recovery_target,
            "time_to_recover": self.time_to_recover,
            "extra_distance": self.extra_distance,
            "message_burst": self.message_burst,
        }

    @staticmethod
    def from_dict(data: dict) -> "EventOutcome":
        known = {f.name for f in fields(EventOutcome)}
        return EventOutcome(**{k: v for k, v in data.items() if k in known})


@dataclass
class RecoveryTracker:
    """Accumulates one event's recovery metrics from per-period scalars.

    ``observe`` is called once per period (after the scheme stepped) with
    the current coverage, total moving distance and cumulative message
    total; the caller supplies the pre-event values at construction.
    """

    at_period: int
    kind: str
    pre_coverage: float
    post_coverage: float
    pre_distance: float
    pre_messages: int
    #: Transmissions in the :data:`BURST_WINDOW` periods *before* the event.
    baseline_window_messages: int

    recovered_at: Optional[int] = field(default=None, init=False)
    best_coverage: float = field(default=0.0, init=False)
    final_coverage: float = field(default=0.0, init=False)
    extra_distance: float = field(default=0.0, init=False)
    _burst: Optional[int] = field(default=None, init=False)
    _last_messages: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.best_coverage = self.post_coverage
        self.final_coverage = self.post_coverage
        self._last_messages = self.pre_messages

    # ------------------------------------------------------------------
    def observe(
        self, period: int, coverage: float, distance: float, messages: int
    ) -> None:
        """Record one post-event period's metrics."""
        self.final_coverage = coverage
        if coverage > self.best_coverage:
            self.best_coverage = coverage
        self._last_messages = messages
        if self.recovered_at is None:
            self.extra_distance = distance - self.pre_distance
            if coverage >= RECOVERY_TARGET * self.pre_coverage - 1e-12:
                self.recovered_at = period
        if self._burst is None and period >= self.at_period + BURST_WINDOW:
            self._burst = (
                messages - self.pre_messages
            ) - self.baseline_window_messages

    @property
    def settled(self) -> bool:
        """Whether both recovery and the burst window have concluded."""
        return self.recovered_at is not None and self._burst is not None

    def outcome(self) -> EventOutcome:
        """Finalise the metrics (call at recovery or at the horizon)."""
        if self.pre_coverage > 1e-12:
            ratio = self.best_coverage / self.pre_coverage
        else:
            ratio = 1.0
        burst = self._burst
        if burst is None:
            burst = (
                self._last_messages - self.pre_messages
            ) - self.baseline_window_messages
        return EventOutcome(
            at_period=self.at_period,
            kind=self.kind,
            pre_coverage=self.pre_coverage,
            post_coverage=self.post_coverage,
            best_coverage=self.best_coverage,
            final_coverage=self.final_coverage,
            recovery_ratio=ratio,
            recovery_target=RECOVERY_TARGET,
            time_to_recover=(
                None
                if self.recovered_at is None
                else self.recovered_at - self.at_period
            ),
            extra_distance=self.extra_distance,
            message_burst=burst,
        )
