"""Deterministic seeds, random streams and frozen parameter tuples.

Every layer that needs randomness or hashable settings derives them here,
so that a run is a pure function of its spec:

* :func:`derive_seed` gives sweeps one independent
  seed per repetition (Fig 13's 300 random-obstacle deployments, for
  instance), :func:`derive_rng` gives the fault injector one private
  stream per event (it draws many values from each), and
  :func:`derive_uniform` gives the unreliable network model the one
  uniform number each delivery needs, with no generator to seed.  All
  three read the same blake2b hash of the base seed and the child's key
  tuple, stable across processes, platforms and ``PYTHONHASHSEED``
  settings, so a run sharded over worker processes produces records
  identical to the serial run.
* :class:`UniformPrefix` is :func:`derive_uniform` for many keys that
  share their leading parts (one period's deliveries of one kind): the
  hash state of the shared part is computed once and copied per draw,
  which hashes the same bytes, so every draw is the same number.
* :func:`freeze_params` normalises a parameter mapping into the sorted
  ``(key, value)`` tuple that frozen specs and events store and hash.

The module imports nothing from the package, so ``sim`` and ``network``
use it without importing the ``api`` layer built on top of them.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Mapping, Sequence, Tuple, Union

__all__ = [
    "Params",
    "derive_seed",
    "derive_rng",
    "derive_uniform",
    "UniformPrefix",
    "freeze_params",
]

#: Frozen parameter mapping: a sorted tuple of ``(key, value)`` pairs with
#: JSON-primitive values, hashable and order-independent.
Params = Tuple[Tuple[str, Any], ...]


def derive_seed(base_seed: int, *keys) -> int:
    """A 31-bit seed derived deterministically from ``base_seed`` and ``keys``.

    ``keys`` may be any mix of ints and strings identifying the child stream
    (a repetition index, an axis label, ...).  Distinct key tuples yield
    independent-looking seeds; the same tuple always yields the same seed.
    """
    return _digest(base_seed, keys) >> 33


def derive_rng(base_seed: int, *keys) -> random.Random:
    """The private random stream seeded by :func:`derive_seed`."""
    return random.Random(derive_seed(base_seed, *keys))


def derive_uniform(base_seed: int, *keys) -> float:
    """A uniform float in ``[0, 1)`` derived from ``base_seed`` and ``keys``.

    The top 53 bits of the :func:`derive_seed` digest, scaled like
    ``random.random()``: one hash per number, for callers that need a
    single draw per key.
    """
    return (_digest(base_seed, keys) >> 11) * 2.0 ** -53


class UniformPrefix:
    """:func:`derive_uniform` with its leading keys hashed once.

    ``UniformPrefix(base_seed, *prefix).draw(*keys)`` equals
    ``derive_uniform(base_seed, *prefix, *keys)`` for every non-empty
    ``keys``.  The digest input is the repr of the whole key tuple,
    ``"(seed, p1, ..., pk, " + "k1, ..., km)"``: the blake2b state after
    the first part is kept, and each draw copies it and feeds only the
    second, so the bytes hashed, and the number drawn, are unchanged.
    """

    __slots__ = ("_base_seed", "_prefix", "_state")

    def __init__(self, base_seed: int, *prefix) -> None:
        self._base_seed = int(base_seed)
        self._prefix = prefix
        head = "(" + ", ".join(map(repr, (self._base_seed,) + prefix)) + ", "
        self._state = hashlib.blake2b(head.encode("utf-8"), digest_size=8)

    def __reduce__(self):
        # A hash state does not pickle; the seed and prefix rebuild it.
        return (UniformPrefix, (self._base_seed, *self._prefix))

    def draw(self, *keys) -> float:
        """``derive_uniform(base_seed, *prefix, *keys)``."""
        if not keys:
            return derive_uniform(self._base_seed, *self._prefix)
        # The tail of the whole tuple's repr: "(k1,)" -> "k1)", and
        # "(k1, k2)" -> "k1, k2)".
        tail = repr(keys)
        tail = tail[1:-2] + ")" if len(keys) == 1 else tail[1:]
        state = self._state.copy()
        state.update(tail.encode("utf-8"))
        return (int.from_bytes(state.digest(), "big") >> 11) * 2.0 ** -53


def _digest(base_seed: int, keys: tuple) -> int:
    """The 64-bit blake2b digest of ``(base_seed, *keys)``'s repr."""
    digest = hashlib.blake2b(
        repr((int(base_seed),) + keys).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")




def freeze_params(params: Union[Mapping[str, Any], Sequence, None]) -> Params:
    """Normalise a mapping (or pair sequence) into a sorted frozen tuple."""
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = tuple(tuple(pair) for pair in params)
    return tuple(sorted((str(k), v) for k, v in items))
