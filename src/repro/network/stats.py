"""Message-overhead accounting.

Table 1 of the paper reports the total (and per-node average) number of
protocol messages transmitted by FLOOR during a 750-second deployment, for
different network sizes and invitation TTLs.  :class:`MessageStats` is the
single sink all protocol layers report their transmissions to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .messages import MessageType, NET_COUNTER_KEYS

__all__ = ["MessageStats"]


@dataclass
class MessageStats:
    """Counts point-to-point transmissions per message type.

    Besides the per-type transmission counters the stats carry the
    delivery-condition counters recorded by the network model
    (:data:`~repro.network.messages.NET_COUNTER_KEYS`): drops, delays,
    retries, timeouts and stale neighbour-table reads.  Under the perfect
    network they stay empty, so structural-mode counter output is
    unchanged.
    """

    #: Plain dicts, not ``Counter``s: an increment is a third of the
    #: cost.  A key appears on its first recorded count.
    counts: Dict[MessageType, int] = field(default_factory=dict)
    net_counts: Dict[str, int] = field(default_factory=dict)

    def record_transmissions(self, message_type: MessageType, count: int) -> None:
        """Record ``count`` point-to-point transmissions of a given type."""
        if count < 0:
            raise ValueError("transmission count cannot be negative")
        counts = self.counts
        counts[message_type] = counts.get(message_type, 0) + count

    def record_net(self, key: str, count: int = 1) -> None:
        """Record a delivery-condition event (``net.<key>`` telemetry)."""
        if key not in NET_COUNTER_KEYS:
            raise ValueError(
                f"unknown net counter {key!r}; expected one of "
                f"{NET_COUNTER_KEYS}"
            )
        if count < 0:
            raise ValueError("net counter increment cannot be negative")
        if count:
            net_counts = self.net_counts
            net_counts[key] = net_counts.get(key, 0) + count

    def record_delivery(
        self, dropped: int, delayed: int, retries: int, timeouts: int
    ) -> None:
        """One exchange's delivery-condition counts, in one call.

        The network model's own path: the keys are fixed and the counts
        never negative, so nothing is validated; a zero count is not
        recorded, as with :meth:`record_net`.
        """
        net_counts = self.net_counts
        if dropped:
            net_counts["dropped"] = net_counts.get("dropped", 0) + dropped
        if delayed:
            net_counts["delayed"] = net_counts.get("delayed", 0) + delayed
        if retries:
            net_counts["retries"] = net_counts.get("retries", 0) + retries
        if timeouts:
            net_counts["timeouts"] = net_counts.get("timeouts", 0) + timeouts

    def total(self) -> int:
        """Total number of transmissions across all message types."""
        return sum(self.counts.values())

    def by_type(self) -> Dict[MessageType, int]:
        """Breakdown of transmissions per message type."""
        return dict(self.counts)

    def to_counters(
        self, prefix: str = "messages.", net_prefix: str = "net."
    ) -> Dict[str, int]:
        """The counts as flat telemetry counters (shared dotted schema).

        ``messages.<type>`` keys, lexically sorted, plus a
        ``messages.total`` aggregate — the same schema
        ``ServiceMetrics.to_counters`` and :class:`repro.obs.Telemetry`
        use, so message accounting folds into any telemetry summary.
        Non-zero delivery-condition counters follow as ``net.<key>``
        entries (key order of :data:`NET_COUNTER_KEYS`); under the
        perfect network none exist and the output is byte-identical to
        the structural schema.
        """
        counters = {
            f"{prefix}{message_type.name.lower()}": count
            for message_type, count in sorted(
                self.counts.items(), key=lambda item: item[0].name
            )
            if count
        }
        counters[f"{prefix}total"] = self.total()
        for key in NET_COUNTER_KEYS:
            count = self.net_counts.get(key, 0)
            if count:
                counters[f"{net_prefix}{key}"] = count
        return counters
