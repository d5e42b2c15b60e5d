"""The network-condition model: seed-deterministic loss and staleness.

The seed repository counts messages *structurally*: delivery is instant and
lossless, and neighbour tables are read straight from the world.  One
:class:`NetworkModel` widens that along the two axes the degradation
experiment varies, behind the existing ``network/`` interfaces:

* **loss** — each transmission is dropped with this probability; a
  protocol round-trip retries up to :data:`RETRY_LIMIT` times before it
  times out, and
* **staleness** — the neighbour snapshot (the live sensors' positions) is
  captured every ``staleness`` periods instead of read live, and rows and
  tables are computed from it when read, so schemes act on aged positions
  (the ``position_update_interval`` idiom).

With ``loss == 0`` and ``staleness <= 1`` every hook passes straight
through to the structural path; :data:`PERFECT_NETWORK` is that model, the
pinned default, so runs without a :class:`NetworkSpec` (or with a
structural one) stay byte-identical to the seed behaviour.

Determinism contract: every delivery takes exactly one uniform draw,
the blake2b hash of ``(seed, period, "exchange" | "walk", message key)``
read as a float (:func:`repro.determinism.derive_uniform`) — never a
value from a shared stream.  The model hashes the ``(seed, period,
kind)`` part once per period and kind and draws each key from that
state (:class:`repro.determinism.UniformPrefix`), which hashes the same
bytes.  ``exchange`` reads its number of failed
attempts, and ``walk_hops`` its number of surviving hops, off the
geometric distribution by inverting its tail: ``int(log1p(-u) /
log1p(-p))`` counts the leading events of probability ``p``.  Two
consequences:

* the world RNG (``world.rng``) is never touched, so a lossy model does
  not perturb scheme-side draws, and
* each outcome is a pure function of its key, independent of evaluation
  order, so sweeps parallelised over jobs produce identical results to
  serial runs.

Condition events are recorded through ``MessageStats.record_net`` (an
exchange's four counts through ``MessageStats.record_delivery``) under
the dotted keys in :data:`~repro.network.messages.NET_COUNTER_KEYS` and
surface as ``net.*`` telemetry counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log1p
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..determinism import UniformPrefix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..spatial import NeighborSnapshot

__all__ = [
    "NETWORK_SCHEMA_VERSION",
    "NetworkModel",
    "NetworkSpec",
    "PERFECT_NETWORK",
    "RETRY_LIMIT",
]

#: Version of the serialized :class:`NetworkSpec` payload.  Hashed into the
#: run fingerprint whenever a non-structural spec is attached (structural
#: specs are omitted entirely so default fingerprints never move).
#: Version 2: one geometric draw per delivery (version 1 records drew
#: per attempt and per hop from a seeded ``random.Random``).
NETWORK_SCHEMA_VERSION = 2

#: Extra delivery attempts after the first: an exchange's budget is
#: ``RETRY_LIMIT + 1`` attempts before it times out.
RETRY_LIMIT = 3

_MODELS = ("perfect", "unreliable")


def _check_knobs(loss: float, staleness: int) -> None:
    if not 0.0 <= loss < 1.0:
        raise ValueError("loss probability must be in [0, 1)")
    if staleness < 0 or staleness != int(staleness):
        raise ValueError("staleness must be a whole number of periods >= 0")


class NetworkModel:
    """Delivery conditions consulted by the protocol layers.

    Models are consulted only at protocol decision points; physics
    (movement, sensing/coverage, the unit-disk link predicate itself)
    always reads live state.

    Parameters
    ----------
    seed:
        Base seed for the per-delivery blake2b draws (normally the
        scenario seed, threaded through ``NetworkSpec.build``).
    loss:
        Per-transmission drop probability in ``[0, 1)``.  An exchange
        whose critical path needs ``k`` transmissions succeeds per
        attempt with probability ``(1 - loss) ** k``.
    staleness:
        Neighbour refresh interval in periods.  With ``staleness <= 1``
        neighbours are read live; otherwise every read is served from the
        snapshot captured at the last refresh boundary (recording
        ``net.stale_reads``) until the next boundary or a population
        change.  The snapshot holds positions only: the rows or table a
        read asks for are computed from it then.
    """

    def __init__(
        self, seed: int = 0, loss: float = 0.0, staleness: int = 0
    ) -> None:
        _check_knobs(loss, staleness)
        self.seed = int(seed)
        self.loss = float(loss)
        self.staleness = int(staleness)
        self.lossy = self.loss > 0.0
        self._stamp: Optional[Tuple[int, int]] = None
        self._snapshot: Optional["NeighborSnapshot"] = None
        #: The period whose draw prefixes ``_prefixes`` holds, per kind.
        self._prefix_period: Optional[int] = None
        self._prefixes: Dict[str, UniformPrefix] = {}
        #: Per critical-transmission count: ``log1p(-success)`` (negative),
        #: or, when ``success`` rounds to 1.0 or underflows to 0.0, the
        #: failure count itself (0.0 or ``inf``), which needs no draw.
        self._attempt_laws: Dict[int, float] = {}
        #: ``log1p(-loss)``, the denominator of every walk's draw.
        self._log_hop = log1p(-self.loss)

    # ------------------------------------------------------------------
    # Neighbour state (staleness)
    # ------------------------------------------------------------------
    def neighbors(self, world) -> "NeighborSnapshot":
        """The neighbour snapshot as the protocol layer sees it (one
        protocol read; its rows and table are computed when asked)."""
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
        """The neighbour table as the protocol layer sees it (one
        protocol read)."""
        if self.staleness <= 1:
            return world.neighbor_table()
        return self.neighbors(world).table()

    # ------------------------------------------------------------------
    # Delivery (loss / retry / timeout)
    # ------------------------------------------------------------------
    def exchange(
        self, world, key: Tuple, critical_transmissions: int = 1
    ) -> Tuple[bool, int]:
        """Attempt a protocol round-trip; returns ``(delivered, attempts)``.

        The round-trip's ``critical_transmissions`` sends must *all*
        arrive for an attempt to count.  Retries retransmit, back off
        exponentially, and give up after ``RETRY_LIMIT + 1`` attempts —
        callers then abort to their safe state.  Without loss every
        exchange delivers on the first attempt.
        """
        if not self.lossy:
            return True, 1
        budget = RETRY_LIMIT + 1
        law = self._attempt_laws.get(critical_transmissions)
        if law is None:
            law = self._attempt_law(critical_transmissions)
        if law < 0.0:
            u = self._draws(world, "exchange").draw(*key)
            failures = log1p(-u) / law
        else:
            failures = law
        timed_out = failures >= budget
        attempts = budget if timed_out else int(failures) + 1
        # Each failed attempt is one drop; each resend waits an
        # exponential backoff of 1, 2, 4, ... periods first.
        world.stats.record_delivery(
            budget if timed_out else attempts - 1,
            (1 << (attempts - 1)) - 1,
            attempts - 1,
            1 if timed_out else 0,
        )
        if timed_out:
            return False, budget
        return True, attempts

    def _attempt_law(self, critical_transmissions: int) -> float:
        """``log1p(-success)`` of an attempt that needs
        ``critical_transmissions`` sends, kept per count (see
        ``_attempt_laws``)."""
        success = (1.0 - self.loss) ** max(1, int(critical_transmissions))
        if 0.0 < success < 1.0:
            law = log1p(-success)
        else:
            # Underflow to 0.0 never gets through; a loss below float
            # precision (success rounds to 1.0) never drops.
            law = 0.0 if success else inf
        self._attempt_laws[critical_transmissions] = law
        return law

    def _draws(self, world, kind: str) -> UniformPrefix:
        """The draw prefix ``(seed, period, kind)`` of the world's period,
        hashed once per period and kind."""
        period = int(world.period_index)
        if period != self._prefix_period:
            self._prefix_period = period
            self._prefixes = {}
        prefix = self._prefixes.get(kind)
        if prefix is None:
            prefix = self._prefixes[kind] = UniformPrefix(self.seed, period, kind)
        return prefix

    def walk_hops(self, world, key: Tuple, ttl: int) -> int:
        """How many hops of a TTL-bounded random walk actually complete."""
        ttl = max(0, int(ttl))
        if not self.lossy or ttl == 0:
            return ttl
        u = self._draws(world, "walk").draw(*key)
        hops = log1p(-u) / self._log_hop
        if hops >= ttl:
            return ttl
        # The walk stops at its first dropped hop.
        world.stats.record_net("dropped")
        return int(hops)


#: Shared instance used as the default ``World.network``: it degrades
#: nothing, so it never touches its staleness state and can be shared.
PERFECT_NETWORK = NetworkModel()


@dataclass(frozen=True)
class NetworkSpec:
    """Serializable description of the network conditions for a run.

    ``model`` names the conditions (``"perfect"`` or ``"unreliable"``);
    ``loss`` and ``staleness`` are :class:`NetworkModel`'s knobs, which
    the perfect model leaves at their defaults.  A *structural* spec —
    one whose knobs degrade nothing — builds the shared
    :data:`PERFECT_NETWORK` and is omitted from the run fingerprint, so
    attaching it never moves cache keys.
    """

    model: str = "perfect"
    loss: float = 0.0
    staleness: int = 0

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ValueError(
                f"unknown network model {self.model!r}; expected one of "
                f"{_MODELS}"
            )
        _check_knobs(self.loss, self.staleness)
        # A JSON payload may spell 0.0 as 0 or 5 as 5.0; normalise so that
        # one run has one fingerprint.
        object.__setattr__(self, "loss", float(self.loss))
        object.__setattr__(self, "staleness", int(self.staleness))
        if self.model == "perfect" and not self.is_structural():
            raise ValueError(
                "the perfect model takes no degradation parameters"
            )

    def is_structural(self) -> bool:
        """Whether this spec degrades nothing (behaves like the seed)."""
        return self.loss == 0.0 and self.staleness <= 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "loss": self.loss,
            "staleness": self.staleness,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NetworkSpec":
        """The spec a :meth:`to_dict` payload describes.  An unknown key
        raises ``TypeError``, so a payload never runs without a knob it
        asks for."""
        return cls(**data)

    def build(self, seed: int) -> NetworkModel:
        """Instantiate the model for a run with the given scenario seed."""
        if self.is_structural():
            return PERFECT_NETWORK
        return NetworkModel(seed=seed, loss=self.loss, staleness=self.staleness)
