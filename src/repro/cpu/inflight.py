"""The dynamic (in-flight) instruction record.

The core runs a *functional-first* model: results that can be computed from
architecturally known values are computed at dispatch (this is what gives
the frontend oracle-quality branch resolution), while results that depend on
the timed world — uncached loads, the CSB conditional flush — stay unknown
until the timing model delivers them.  ``value_known`` tracks the functional
plane; ``ready_at`` tracks the timing plane (the cycle dependents may issue).

Each record is the only place its dynamic state lives: a dependent holds
its producers' records and reads their ``value`` and ``ready_at`` directly,
an issue-queue entry parks on its producer's ``waiters``, and a cached
store, swap or store-conditional keeps the bytes it overwrote in ``undo``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.memory.layout import PageAttr

if TYPE_CHECKING:
    from repro.cpu.decode import DecodedOp


class MemState(enum.Enum):
    """Progress of a memory operation through the memory queue."""

    WAITING = "waiting"          # operands not timing-ready yet
    ACCESSING = "accessing"      # cache access in progress
    ISSUED_UNCACHED = "issued"   # handed to the uncached unit, awaiting data
    DONE = "done"


class InFlight:
    """One dynamic instruction from dispatch to retirement."""

    __slots__ = (
        "seq",
        "op",
        "instr",
        "pc",
        "dispatch_cycle",
        "deps",
        "src_vals",
        "value",
        "value_known",
        "issued",
        "ready_at",
        "taken",
        "address",
        "attr",
        "store_data",
        "mem_state",
        "swap_expected",
        "dep_list",
        "stall_until",
        "cache_issued",
        "waiters",
        "undo",
    )

    def __init__(
        self,
        seq: int,
        op: "DecodedOp",
        pc: int,
        dispatch_cycle: int,
        src_vals: Dict[str, int],
        deps: Dict[str, "InFlight"],
    ) -> None:
        self.seq = seq
        #: the static instruction's decode record (repro.cpu.decode)
        self.op = op
        self.instr = op.instr
        self.pc = pc
        self.dispatch_cycle = dispatch_cycle
        #: register name -> producer record (in flight at dispatch); the
        #: core drops these once this record retires
        self.deps = deps
        #: register name -> value captured at dispatch (resolved operands)
        self.src_vals = src_vals
        self.value: Optional[int] = None
        self.value_known = False
        self.issued = False
        #: cycle the result is available to dependents (timing plane)
        self.ready_at: Optional[int] = None
        self.taken: Optional[bool] = None
        self.address: Optional[int] = None
        self.attr: Optional[PageAttr] = None
        self.store_data: Optional[int] = None
        self.mem_state = MemState.WAITING
        #: for swaps: the expected value carried in the source register
        self.swap_expected: Optional[int] = None
        #: flat copy of ``deps.values()``; the hot timing checks iterate
        #: this instead of a dict view
        self.dep_list: Tuple["InFlight", ...] = tuple(deps.values())
        #: issue-stage skip hint: no producer can be ready before this cycle
        self.stall_until = 0
        #: a retiring cached store already entered the D-cache (guards the
        #: non-blocking-cache commit path against double accesses)
        self.cache_issued = False
        #: issue-queue entries parked until this record's ready cycle is
        #: recorded (None when there are none)
        self.waiters: Optional[List["InFlight"]] = None
        #: (address, bytes overwritten) of a dispatch-time cached write,
        #: restored if this record is squashed
        self.undo: Optional[Tuple[int, bytes]] = None

    def timing_ready(self, now: int) -> bool:
        """True when every producer's result is timing-available by ``now``."""
        for producer in self.dep_list:
            cycle = producer.ready_at
            if cycle is None or cycle > now:
                return False
        return True

    def operand(self, name: str) -> int:
        """Fetch a source operand's functional value (producers must have
        resolved; callers check :meth:`operands_known` first)."""
        if name in self.src_vals:
            return self.src_vals[name]
        value = self.deps[name].value
        assert value is not None
        return value

    def operands_known(self) -> bool:
        for producer in self.dep_list:
            if not producer.value_known:
                return False
        return True

    def describe(self) -> Tuple[int, str]:
        return (self.seq, type(self.instr).__name__)

    def __repr__(self) -> str:
        return f"InFlight(seq={self.seq}, pc={self.pc}, {type(self.instr).__name__})"
