"""Shared utilities: seeded RNG management, logging, text tables.

These helpers are deliberately small and dependency-free so that every other
subpackage (autograd, hardware, evaluation, ...) can use them without import
cycles.
"""

from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.tables import format_table

__all__ = [
    "new_rng",
    "spawn_rngs",
    "get_logger",
    "set_verbosity",
    "format_table",
]
