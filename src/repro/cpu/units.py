"""Functional-unit pool: per-cycle issue-slot accounting.

The core may issue up to ``int_units`` integer and ``fp_units`` floating
point operations per cycle (paper §4.1: "instructions may issue up to two
integer units and two floating point units simultaneously").  Cache ports
and the single uncached-issue port are tracked the same way.
"""

from __future__ import annotations

from typing import Dict

from repro.common.config import CoreConfig
from repro.common.errors import SimulationError
from repro.isa.instructions import FU_FP, FU_INT


class FunctionalUnitPool:
    """Counts the issue slots left in the current cycle."""

    def __init__(self, config: CoreConfig, cache_ports: int = 2) -> None:
        self._limits: Dict[str, int] = {
            FU_INT: config.int_units,
            FU_FP: config.fp_units,
            "cache": cache_ports,
            "uncached": 1,
        }
        self._free = dict(self._limits)

    def new_cycle(self) -> None:
        self._free = self._limits.copy()

    def acquire(self, kind: str) -> bool:
        """Take a slot if one is free this cycle."""
        free = self._free
        try:
            left = free[kind]
        except KeyError:
            raise SimulationError(f"unknown functional unit kind {kind!r}") from None
        if left <= 0:
            return False
        free[kind] = left - 1
        return True
