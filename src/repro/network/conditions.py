"""Pluggable network-condition models: perfect vs unreliable delivery.

The seed repository counts messages *structurally*: delivery is instant and
lossless, and neighbour tables are read straight from the world.  This
module makes delivery conditions a first-class, configurable axis behind
the existing ``network/`` interfaces:

``PerfectNetwork``
    The pinned default.  Every call is a pass-through to the structural
    path, so runs without a :class:`NetworkSpec` (or with a structural
    one) stay byte-identical to the seed behaviour.

``UnreliableNetwork``
    Applies seed-deterministic per-message loss, per-hop latency (in
    periods) and neighbour staleness (the neighbour snapshot — the live
    sensors' positions — is captured every ``staleness`` periods instead
    of read live, and rows and tables are computed from it when read, so
    schemes act on aged positions — the ``position_update_interval``
    idiom).

Determinism contract: every delivery takes exactly one uniform draw,
the blake2b hash of ``(seed, period, "exchange" | "walk", message key)``
read as a float (:func:`repro.determinism.derive_uniform`) — never a
value from a shared stream.  ``exchange`` reads its number of failed
attempts, and ``walk_hops`` its number of surviving hops, off the
geometric distribution by inverting its tail: ``int(log1p(-u) /
log1p(-p))`` counts the leading events of probability ``p``.  Two
consequences:

* the world RNG (``world.rng``) is never touched, so enabling the
  unreliable model does not perturb scheme-side draws, and
* each outcome is a pure function of its key, independent of evaluation
  order, so sweeps parallelised over jobs produce identical results to
  serial runs.

Condition events are recorded through ``MessageStats.record_net`` under
the dotted keys in :data:`~repro.network.messages.NET_COUNTER_KEYS` and
surface as ``net.*`` telemetry counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log1p
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..determinism import derive_uniform

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..spatial import NeighborSnapshot

__all__ = [
    "NETWORK_SCHEMA_VERSION",
    "NetworkModel",
    "NetworkSpec",
    "PerfectNetwork",
    "PERFECT_NETWORK",
    "UnreliableNetwork",
]

#: Version of the serialized :class:`NetworkSpec` payload.  Hashed into the
#: run fingerprint whenever a non-structural spec is attached (structural
#: specs are omitted entirely so default fingerprints never move).
#: Version 2: one geometric draw per delivery (version 1 records drew
#: per attempt and per hop from a seeded ``random.Random``).
NETWORK_SCHEMA_VERSION = 2

_MODELS = ("perfect", "unreliable")


class NetworkModel:
    """Delivery-condition strategy consulted by the protocol layers.

    The base class *is* the perfect network: every hook is a structural
    pass-through.  Subclasses override the hooks they degrade.  Models are
    consulted only at protocol decision points; physics (movement,
    sensing/coverage, the unit-disk link predicate itself) always reads
    live state.

    ``exchange`` is the timeout/retry primitive: one call models a
    round-trip whose ``critical_transmissions`` sends must *all* arrive
    for the round-trip to count as delivered.  Retries retransmit, back
    off exponentially, and give up after the delivery budget is
    exhausted — callers then abort to their safe state.
    """

    #: Per-hop delivery latency in whole periods (0 = instantaneous).
    latency: int = 0
    #: Neighbour-snapshot refresh interval in periods (<= 1 = read live).
    staleness: int = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def on_period(self, world) -> None:
        """Hook invoked by the engine at the start of every period."""

    # ------------------------------------------------------------------
    # Neighbour state
    # ------------------------------------------------------------------
    def neighbors(self, world) -> "NeighborSnapshot":
        """The neighbour snapshot as the protocol layer sees it (one
        protocol read; its rows and table are computed when asked)."""
        return world.neighbor_snapshot()

    def neighbor_table(self, world) -> Dict[int, List[int]]:
        """The neighbour table as the protocol layer sees it (one
        protocol read)."""
        return world.neighbor_table()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def exchange(
        self, world, key: Tuple, critical_transmissions: int = 1
    ) -> Tuple[bool, int]:
        """Attempt a protocol round-trip; returns ``(delivered, attempts)``.

        The perfect network always delivers on the first attempt.
        """
        return True, 1

    def walk_hops(self, world, key: Tuple, ttl: int) -> int:
        """How many hops of a TTL-bounded random walk actually complete."""
        return max(0, int(ttl))


class PerfectNetwork(NetworkModel):
    """The structural default: lossless, instantaneous, live state."""


#: Shared stateless instance used as the default ``World.network``.
PERFECT_NETWORK = PerfectNetwork()


class UnreliableNetwork(NetworkModel):
    """Seed-deterministic loss, latency and staleness degradation.

    Parameters
    ----------
    seed:
        Base seed for the per-delivery blake2b draws (normally the
        scenario seed, threaded through ``NetworkSpec.build``).
    loss:
        Per-transmission drop probability in ``[0, 1)``.  An exchange
        whose critical path needs ``k`` transmissions succeeds per
        attempt with probability ``(1 - loss) ** k``.
    latency:
        Per-hop delivery delay in whole periods.  Protocol layers that
        honour latency defer their action and record ``net.delayed``.
    staleness:
        Neighbour refresh interval in periods.  With ``staleness <= 1``
        neighbours are read live; otherwise every read is served from the
        snapshot captured at the last refresh boundary (recording
        ``net.stale_reads``) until the next boundary or a population
        change.  The snapshot holds positions only: the rows or table a
        read asks for are computed from it then.
    retry_limit:
        Extra delivery attempts after the first (budget = ``retry_limit
        + 1``).  Exhausting the budget records ``net.timeouts`` and the
        exchange reports non-delivery.
    """

    def __init__(
        self,
        seed: int,
        loss: float = 0.0,
        latency: int = 0,
        staleness: int = 0,
        retry_limit: int = 3,
    ) -> None:
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if latency < 0:
            raise ValueError("latency cannot be negative")
        if staleness < 0:
            raise ValueError("staleness cannot be negative")
        if retry_limit < 0:
            raise ValueError("retry limit cannot be negative")
        self.seed = int(seed)
        self.loss = float(loss)
        self.latency = int(latency)
        self.staleness = int(staleness)
        self.retry_limit = int(retry_limit)
        self.lossy = self.loss > 0.0
        self._stamp: Optional[Tuple[int, int]] = None
        self._snapshot: Optional["NeighborSnapshot"] = None

    # ------------------------------------------------------------------
    # Neighbour state (staleness)
    # ------------------------------------------------------------------
    def neighbors(self, world) -> "NeighborSnapshot":
        if self.staleness <= 1:
            return world.neighbor_snapshot()
        # Refresh on the period boundary grid and on any population change
        # (a dead sensor must not linger in the served rows).
        stamp = (
            int(world.period_index) // self.staleness,
            world.population_version,
        )
        if stamp != self._stamp:
            self._stamp = stamp
            self._snapshot = world.neighbor_snapshot()
        else:
            world.stats.record_net("stale_reads")
        return self._snapshot

    def neighbor_table(self, world) -> Dict[int, List[int]]:
        if self.staleness <= 1:
            return world.neighbor_table()
        return self.neighbors(world).table()

    # ------------------------------------------------------------------
    # Delivery (loss / retry / timeout)
    # ------------------------------------------------------------------
    def exchange(
        self, world, key: Tuple, critical_transmissions: int = 1
    ) -> Tuple[bool, int]:
        if not self.lossy:
            return True, 1
        budget = self.retry_limit + 1
        success = (1.0 - self.loss) ** max(1, int(critical_transmissions))
        if 0.0 < success < 1.0:
            u = derive_uniform(
                self.seed, int(world.period_index), "exchange", *key
            )
            failures = log1p(-u) / log1p(-success)
        else:
            # Underflow to 0.0 never gets through; a loss below float
            # precision (success rounds to 1.0) never drops.
            failures = 0.0 if success else inf
        timed_out = failures >= budget
        attempts = budget if timed_out else int(failures) + 1
        # Each failed attempt is one drop; each resend waits an
        # exponential backoff of 1, 2, 4, ... periods first.
        world.stats.record_net("dropped", budget if timed_out else attempts - 1)
        world.stats.record_net("delayed", (1 << (attempts - 1)) - 1)
        world.stats.record_net("retries", attempts - 1)
        if timed_out:
            world.stats.record_net("timeouts")
            return False, budget
        return True, attempts

    def walk_hops(self, world, key: Tuple, ttl: int) -> int:
        ttl = max(0, int(ttl))
        if not self.lossy or ttl == 0:
            return ttl
        u = derive_uniform(self.seed, int(world.period_index), "walk", *key)
        hops = log1p(-u) / log1p(-self.loss)
        if hops >= ttl:
            return ttl
        # The walk stops at its first dropped hop.
        world.stats.record_net("dropped")
        return int(hops)


@dataclass(frozen=True)
class NetworkSpec:
    """Serializable description of the network conditions for a run.

    ``model`` selects the backend (``"perfect"`` or ``"unreliable"``); the
    remaining knobs mirror :class:`UnreliableNetwork`.  A *structural*
    spec — the perfect model, or an unreliable model whose knobs are all
    degenerate — builds the shared :data:`PERFECT_NETWORK` and is omitted
    from the run fingerprint, so attaching it never moves cache keys.
    """

    model: str = "perfect"
    loss: float = 0.0
    latency: int = 0
    staleness: int = 0
    retry_limit: int = 3

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ValueError(
                f"unknown network model {self.model!r}; expected one of "
                f"{_MODELS}"
            )
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if self.latency < 0:
            raise ValueError("latency cannot be negative")
        if self.staleness < 0:
            raise ValueError("staleness cannot be negative")
        if self.retry_limit < 0:
            raise ValueError("retry limit cannot be negative")
        if self.model == "perfect" and not self.is_structural():
            raise ValueError(
                "the perfect model takes no degradation parameters"
            )

    def is_structural(self) -> bool:
        """Whether this spec degrades nothing (behaves like the seed)."""
        return self.loss == 0.0 and self.latency == 0 and self.staleness <= 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "loss": self.loss,
            "latency": self.latency,
            "staleness": self.staleness,
            "retry_limit": self.retry_limit,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NetworkSpec":
        return cls(
            model=str(data.get("model", "perfect")),
            loss=float(data.get("loss", 0.0)),
            latency=int(data.get("latency", 0)),
            staleness=int(data.get("staleness", 0)),
            retry_limit=int(data.get("retry_limit", 3)),
        )

    def build(self, seed: int) -> NetworkModel:
        """Instantiate the model for a run with the given scenario seed."""
        if self.is_structural():
            return PERFECT_NETWORK
        return UnreliableNetwork(
            seed=seed,
            loss=self.loss,
            latency=self.latency,
            staleness=self.staleness,
            retry_limit=self.retry_limit,
        )
