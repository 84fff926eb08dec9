"""Round-robin process scheduling with drain-based context switches.

Context switches model a timer interrupt: dispatch stops, the pipeline
drains (in-flight instructions complete architecturally — this is an
interrupt, not a misprediction), a fixed switch penalty elapses (register
save/restore, kernel entry/exit), and the next runnable context is
installed.  Draining between contexts is what makes the CSB conflict story
observable: a process interrupted between its combining stores and its
conditional flush leaves its partial line in the CSB, and the *next*
process's first combining store clears it (paper §3.2's interleaving
example).

Two layers:

* :class:`CoreScheduler` owns one core's run queue — the timeslice logic
  above, verbatim, for a single core.
* :class:`Scheduler` is the SMP multiplexer the :class:`~repro.sim.system
  .System` talks to: it distributes processes over per-core run queues
  (round-robin by add order unless the caller pins a ``core_id``) and
  ticks every queue each cycle.  With one core it degenerates to exactly
  the single-queue behavior, which keeps ``num_cores=1`` runs
  cycle-identical to the pre-SMP scheduler.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.common.errors import ConfigError
from repro.cpu.context import ProcessContext
from repro.cpu.core import Core


class CoreScheduler:
    """Owns one core's run queue and drives that core's context."""

    def __init__(
        self,
        core: Core,
        quantum: Optional[int] = None,
        switch_penalty: int = 100,
        core_id: int = 0,
    ) -> None:
        if quantum is not None and quantum < 1:
            raise ConfigError("quantum must be >= 1 cycle")
        if switch_penalty < 0:
            raise ConfigError("switch_penalty must be >= 0")
        self.core = core
        self.core_id = core_id
        self.quantum = quantum
        self.switch_penalty = switch_penalty
        #: Observability event bus; None (the default) means uninstrumented.
        self.events = None
        self._processes: List[ProcessContext] = []
        self._current_index = -1
        self._quantum_start = 0
        self._switch_at: Optional[int] = None
        self._draining = False
        self.context_switches = 0
        # Cached count of non-halted processes.  Only the installed context
        # can transition to halted (halt executes on the core), and tick()
        # observes that transition exactly once via _current_live, so the
        # count never drifts — and the hot path never allocates a list.
        self._num_runnable = 0
        self._current_live = False
        #: Schedule forcing (the model checker's replay driver): while
        #: held, tick() is a no-op and contexts are installed/parked
        #: explicitly via force_install()/force_park().  Never set during
        #: normal simulation, so the scheduler's timing is untouched.
        self.held = False

    def force_install(self, context: ProcessContext) -> None:
        """Install ``context`` directly, bypassing the run queue.

        Used by the deterministic replay driver to execute one abstract
        step at a time: the pipeline must be drained (the previous step
        program has fully retired) and the queue is held so the timeslice
        logic cannot interfere.
        """
        if not self.core.drained:
            raise ConfigError("force_install with instructions in flight")
        self.held = True
        self.core.install_context(context)

    def force_park(self) -> None:
        """Remove the forced context once its step program has halted."""
        if not self.core.drained:
            raise ConfigError("force_park with instructions in flight")
        self.core.wake()
        self.core.context = None

    def add(self, context: ProcessContext) -> None:
        self._processes.append(context)
        if not context.halted:
            self._num_runnable += 1

    @property
    def processes(self) -> List[ProcessContext]:
        return list(self._processes)

    @property
    def all_halted(self) -> bool:
        # Hot: checked once per simulated CPU cycle by System.run.
        for process in self._processes:
            if not process.halted:
                return False
        return True

    def runnable(self) -> List[ProcessContext]:
        return [p for p in self._processes if not p.halted]

    def waits(self) -> bool:
        """True while :meth:`tick` cannot act; the System's clock driver
        ticks the queue only otherwise.

        That needs no quantum, so no switch or drain is ever pending, and
        either a live context on the core or nothing to act on: no halt
        of the context that ran left to note, and no runnable process to
        install (``_num_runnable`` never counts fewer than there are).
        """
        if self.quantum is not None:
            return False
        context = self.core.context
        if context is not None and not context.halted:
            return True
        return not (self._current_live or self._num_runnable)

    def tick(self, now: int) -> None:
        if self.held or not self._processes:
            return
        # Once per cycle under System.step; the clock driver skips the
        # cycles it cannot act in (see waits).
        core = self.core
        # Waiting out the switch penalty?
        if self._switch_at is not None:
            if now >= self._switch_at:
                self._install_next(now)
            return
        current = core.context
        if current is None:
            self._begin_switch(now, immediate=True)
            return
        if current.halted:
            if self._current_live:
                self._current_live = False
                self._num_runnable -= 1
            if self._num_runnable:
                self._begin_switch(now, immediate=True)
            return
        if self._draining:
            if core.drained:
                self._draining = False
                self._switch_at = now + self.switch_penalty
            return
        if (
            self.quantum is not None
            and self._num_runnable > 1
            and now - self._quantum_start >= self.quantum
        ):
            # Precise timer interrupt: unretired work is squashed and will
            # re-execute when this process is rescheduled.
            core.interrupt()
            self._draining = True

    def next_event(self, now: int) -> Optional[int]:
        """Earliest cycle, from ``now`` on, at which :meth:`tick` could act
        while the core waits (the System's clock jump): the end of a
        switch penalty or of the quantum, ``now`` when a switch is due at
        once, or None when only another component can give it work."""
        if self.held or not self._processes:
            return None
        if self._switch_at is not None:
            return max(now, self._switch_at)
        current = self.core.context
        if current is None:
            return now if self.runnable() else None
        if current.halted:
            others = self._num_runnable - (1 if self._current_live else 0)
            return now if others else None
        if self._draining:
            return now if self.core.drained else None
        if self.quantum is not None and self._num_runnable > 1:
            return max(now, self._quantum_start + self.quantum)
        return None

    def retire_halted(self) -> int:
        """Forget every halted process (streaming replay's queue purge).

        A trace replay adds a fresh program per window; without retirement
        the run queues — and ``all_halted`` scans — would grow with every
        window.  Only fully finished contexts go: a halted context whose
        core has not drained stays until it has.  Returns the number
        retired.
        """
        keep: List[ProcessContext] = []
        retired = 0
        for process in self._processes:
            if process.halted and (
                self.core.context is not process or self.core.drained
            ):
                retired += 1
                if self.core.context is process:
                    self.core.wake()
                    self.core.context = None
            else:
                keep.append(process)
        if retired:
            self._processes = keep
            # Restart round-robin from the front; the replay installs at
            # most one program per core per window, so order is immaterial.
            self._current_index = -1
            self._current_live = False
        return retired

    def reinstall(self, context: ProcessContext) -> None:
        """Re-install ``context`` after a fast-forward hand-off.

        The fast-forward tier advances the *currently installed* context
        functionally (pipeline drained first), so the core's speculative
        fetch pointer is stale when detailed execution resumes.  Reinstalling
        refreshes it from ``context.pc`` without charging a context switch —
        architecturally no switch happened.
        """
        if context not in self._processes:
            raise ConfigError("cannot reinstall a context this queue does not own")
        self._switch_at = None
        self._draining = False
        self._current_index = self._processes.index(context)
        self.core.install_context(context)
        self._current_live = not context.halted
        self._quantum_start = self.core.now

    def _begin_switch(self, now: int, immediate: bool) -> None:
        if immediate:
            self._install_next(now)
        else:
            self._switch_at = now + self.switch_penalty

    def _install_next(self, now: int) -> None:
        self._switch_at = None
        self._draining = False  # a halt during a drain ends the drain
        candidates = self.runnable()
        if not candidates:
            return
        # Round-robin: next index after the current one.
        for step in range(1, len(self._processes) + 1):
            index = (self._current_index + step) % len(self._processes)
            if not self._processes[index].halted:
                self._current_index = index
                break
        chosen = self._processes[self._current_index]
        if self.core.context is not chosen:
            self.core.install_context(chosen)
            self.context_switches += 1
            if self.events is not None:
                from repro.observability.events import ContextSwitch

                self.events.publish(
                    ContextSwitch(chosen.pid, chosen.name, self.core_id)
                )
        self._current_live = True
        self._quantum_start = now


class Scheduler:
    """Multiplexes processes over per-core run queues.

    Accepts a single :class:`Core` (the historical signature) or a
    sequence of cores.  Processes are assigned to cores round-robin in
    add order; ``add(context, core_id=...)`` pins one explicitly.
    """

    def __init__(
        self,
        cores: Union[Core, Sequence[Core]],
        quantum: Optional[int] = None,
        switch_penalty: int = 100,
    ) -> None:
        core_list = [cores] if isinstance(cores, Core) else list(cores)
        if not core_list:
            raise ConfigError("scheduler needs at least one core")
        self.quantum = quantum
        self.switch_penalty = switch_penalty
        self.queues: List[CoreScheduler] = [
            CoreScheduler(core, quantum, switch_penalty, core_id=index)
            for index, core in enumerate(core_list)
        ]
        self._processes: List[ProcessContext] = []

    def add(self, context: ProcessContext, core_id: Optional[int] = None) -> None:
        if core_id is None:
            core_id = len(self._processes) % len(self.queues)
        if not 0 <= core_id < len(self.queues):
            raise ConfigError(
                f"core_id {core_id} out of range (have {len(self.queues)} cores)"
            )
        self._processes.append(context)
        self.queues[core_id].add(context)

    @property
    def processes(self) -> List[ProcessContext]:
        """All processes, in global add order."""
        return list(self._processes)

    @property
    def all_halted(self) -> bool:
        return self.live_process() is None

    def live_process(self) -> Optional[ProcessContext]:
        """The first process in add order that has not halted (None: every
        one has).  System.advance keeps it and asks again only once it
        halts: until then the machine cannot be finished."""
        for process in self._processes:
            if not process.halted:
                return process
        return None

    def runnable(self) -> List[ProcessContext]:
        return [p for p in self._processes if not p.halted]

    @property
    def context_switches(self) -> int:
        return sum(queue.context_switches for queue in self.queues)

    @property
    def events(self):
        return self.queues[0].events

    @events.setter
    def events(self, bus) -> None:
        for queue in self.queues:
            queue.events = bus

    def retire_halted(self) -> int:
        """Drop every fully finished process from all queues (see
        :meth:`CoreScheduler.retire_halted`)."""
        retired = sum(queue.retire_halted() for queue in self.queues)
        if retired:
            self._processes = [p for p in self._processes if not p.halted]
        return retired

    def tick(self, now: int) -> None:
        for queue in self.queues:
            queue.tick(now)
