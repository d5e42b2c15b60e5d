"""Baseline schemes: OPT strip pattern, VOR, Minimax and the explosion step."""

from .explosion import ExplosionResult, explode
from .opt_pattern import OptStripPattern
from .vd_schemes import MinimaxScheme, VorScheme

__all__ = [
    "ExplosionResult",
    "explode",
    "OptStripPattern",
    "MinimaxScheme",
    "VorScheme",
]
