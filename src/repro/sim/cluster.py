"""Multi-node co-simulation: several systems sharing a wall clock.

The paper's motivation is fine-grain communication between cluster nodes;
:class:`Cluster` steps any number of :class:`~repro.sim.system.System`
instances in CPU-cycle lockstep and ticks the links between their NICs on
bus-cycle boundaries.  All nodes must share one CPU/bus frequency ratio —
the cluster has a single wall clock.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigError, DeadlockError
from repro.devices.link import Link
from repro.sim.system import System


class Cluster:
    """A set of systems plus the links between them."""

    def __init__(self, systems: List[System]) -> None:
        if len(systems) < 2:
            raise ConfigError("a cluster needs at least two systems")
        ratios = {system.config.bus.cpu_ratio for system in systems}
        if len(ratios) != 1:
            raise ConfigError(
                f"all nodes must share one CPU/bus ratio, got {sorted(ratios)}"
            )
        self.systems = list(systems)
        self.links: List[Link] = []
        self.cycle = 0
        self._ratio = ratios.pop()

    def connect(self, link: Link) -> Link:
        self.links.append(link)
        return link

    def step(self) -> None:
        """Advance every node one CPU cycle; links tick on bus cycles."""
        if self.cycle % self._ratio == 0:
            bus_cycle = self.cycle // self._ratio
            for link in self.links:
                link.tick(bus_cycle)
        for system in self.systems:
            system.step()
        self.cycle += 1

    @property
    def finished(self) -> bool:
        return all(system.finished for system in self.systems) and all(
            link.in_flight == 0 for link in self.links
        )

    def run(self, max_cycles: int = 10_000_000) -> None:
        """Run every node to completion (halted and drained, links empty)."""
        while not self.finished:
            if self.cycle >= max_cycles:
                stuck = next(
                    (node for node in self.systems if not node.finished),
                    self.systems[0],
                )
                raise DeadlockError(
                    f"cluster exceeded max_cycles={max_cycles}",
                    cycle=self.cycle,
                    snapshot=stuck.core.machine_snapshot(),
                )
            self.step()
