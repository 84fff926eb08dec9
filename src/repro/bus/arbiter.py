"""Shared-bus arbitration among multiple initiators.

A single system bus accepts at most one new transaction per bus cycle
(:meth:`SystemBus.try_issue` refuses overlapping transfers), so when several
initiators — per-core uncached units, the cache refill engine, a DMA master —
want the bus in the same cycle, something must pick the winner.  The
:class:`BusArbiter` is that something: a two-level scheme of strict priority
*classes* with a configurable policy *within* a class.

* **Priority classes** are walked lowest number first.  Refill traffic
  registers at priority 0 (memory stalls the whole core, so it outranks
  programmed I/O — the same choice the single-initiator path hard-coded),
  per-core uncached units at priority 1.
* **Within a class**, ``round_robin`` rotates the first-considered slot one
  past the most recent winner, so every initiator is at most N-1 grants from
  the front (classic fair arbitration); ``priority`` always considers
  initiators in registration order, modeling a daisy-chained grant line where
  core 0 can starve core N under saturation.

An initiator is any object with ``tick_bus(bus_cycle) -> bool`` returning
True when it started a transaction.  Losing a grant is not an error: an
initiator simply retries next bus cycle (its FIFO head stays put), which is
exactly the wait time the bus-cycle accounting attributes to arbitration.

With one initiator per class the arbiter reduces to the pre-SMP clocking
order (bus tick, then refill, then the single uncached unit), which is what
keeps ``num_cores=1`` systems cycle-identical to the old single-initiator
path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

from repro.common.config import ARBITRATION_POLICIES
from repro.common.errors import ConfigError
from repro.bus.base import SystemBus


class BusInitiator(Protocol):
    """Anything that can start bus transactions when granted a cycle."""

    def tick_bus(self, bus_cycle: int) -> bool:
        """Try to start a transaction; True means the bus was taken."""
        ...

    def next_poll(self, bus_cycle: int) -> Optional[int]:
        """Earliest bus cycle, from ``bus_cycle`` on, at which
        :meth:`tick_bus` could change anything (None: nothing to issue)."""
        ...


class BusArbiter:
    """Grants each bus cycle to at most one of the registered initiators."""

    def __init__(self, bus: SystemBus, policy: str = "round_robin") -> None:
        if policy not in ARBITRATION_POLICIES:
            raise ConfigError(f"arbitration policy must be one of {ARBITRATION_POLICIES}")
        self.bus = bus
        self.policy = policy
        #: Grant counts per initiator name (fairness diagnostics).
        self.grants: Dict[str, int] = {}
        # priority -> [(name, initiator), ...] in registration order.
        self._classes: Dict[int, List[tuple]] = {}
        # priority -> index of the next first-considered slot (round robin).
        self._rotor: Dict[int, int] = {}
        self._order: List[int] = []

    def add_initiator(
        self, initiator: BusInitiator, priority: int = 1, name: str = ""
    ) -> None:
        """Register an initiator in a priority class (lower wins first)."""
        group = self._classes.setdefault(priority, [])
        if priority not in self._rotor:
            self._rotor[priority] = 0
            self._order = sorted(self._classes)
        label = name or f"initiator{priority}.{len(group)}"
        group.append((label, initiator))
        self.grants[label] = 0

    def next_event(self, bus_cycle: int) -> Optional[int]:
        """Earliest bus cycle, from ``bus_cycle`` on, at which
        :meth:`tick_bus` could act: the next transaction completion or
        initiator poll that can change anything (None: neither)."""
        wake = self.bus.next_completion
        for group in self._classes.values():
            for _, initiator in group:
                poll = initiator.next_poll(bus_cycle)
                if poll is not None and (wake is None or poll < wake):
                    wake = poll
        if wake is None or wake > bus_cycle:
            return wake
        return bus_cycle

    def tick_bus(self, bus_cycle: int) -> Optional[str]:
        """Advance the bus one cycle, then grant it to the first initiator
        that can use it.  Returns the winner's name, or None if the cycle
        went idle (or the bus is mid-transfer)."""
        self.bus.tick(bus_cycle)
        for priority in self._order:
            group = self._classes[priority]
            count = len(group)
            start = self._rotor[priority] if self.policy == "round_robin" else 0
            for step in range(count):
                index = (start + step) % count
                name, initiator = group[index]
                if initiator.tick_bus(bus_cycle):
                    if self.policy == "round_robin":
                        self._rotor[priority] = (index + 1) % count
                    self.grants[name] += 1
                    return name
        return None
