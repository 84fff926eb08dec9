"""Exception hierarchy for the CSB reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class AlignmentError(ReproError):
    """An address or size violated an alignment requirement."""


class AssemblyError(ReproError):
    """The assembler rejected a source program.

    Carries the offending source line number when available.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """The simulator reached an inconsistent state at runtime."""


class MemoryError_(ReproError):
    """An access fell outside any mapped region or crossed a boundary.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`, which means something entirely different.
    """


class DeadlockError(SimulationError):
    """The simulation made no forward progress within its watchdog window.

    ``snapshot``, when the raiser supplies one, is a JSON-ready view of the
    machine at the failing cycle (the core watchdog supplies
    :meth:`repro.cpu.core.Core.machine_snapshot`); :meth:`report` renders
    it for a human.  The message itself never includes it.
    """

    def __init__(
        self, message: str, cycle: int | None = None, snapshot: dict | None = None
    ) -> None:
        self.cycle = cycle
        self.snapshot = snapshot
        if cycle is not None:
            message = f"{message} (cycle {cycle})"
        super().__init__(message)

    def report(self) -> str:
        """The message followed by the rendered snapshot, one line per
        core, CSB and in-flight bus transaction."""
        lines = [str(self)]
        snapshot = self.snapshot
        if snapshot is None:
            return lines[0]
        for core in snapshot["cores"]:
            head = core["head"]
            where = (
                "ROB empty"
                if head is None
                else f"head seq {head['seq']} pc {head['pc']} "
                f"`{head['op']}` {head['mem_state']}"
            )
            sleep = (
                f"asleep until {core['asleep_until']}"
                if core["asleep_until"] is not None
                else "awake"
            )
            lines.append(
                f"core {core['core']} pid {core['pid']}: {where}; "
                f"ROB {core['rob']}, memq {core['memq']}, uncached buffer "
                f"{core['uncached_buffer']}; {sleep}, slept "
                f"{core['slept_ticks']} cycles"
            )
        lines.append(f"CSB: {snapshot['csb_pending_bursts']} pending bursts")
        in_flight = snapshot["bus_in_flight"]
        lines.append(f"bus: {len(in_flight)} transactions in flight")
        for txn in in_flight:
            lines.append(
                f"  {txn['kind']} {txn['address']:#x} {txn['size']} B "
                f"core {txn['core']}, ends bus cycle {txn['end']}"
            )
        return "\n".join(lines)
