"""Wrap ``repro``'s per-layer entry points from outside the program.

One :class:`Recorder` per process serves two modes:

* **probe** (``timing=False``): only system construction, the run loops
  and ``execute_job`` are wrapped, so the simulated counters of every
  finished ``System`` can be read.  Nothing runs per simulated cycle;
  the untraced end-to-end passes use this mode.
* **trace** (``timing=True``): every per-cycle tick and every harness
  entry point is wrapped as well.  Ticks are aggregated into call counts
  and host seconds; coarse calls also become spans
  ``(name, start, end, parent, op)`` kept in memory.

A layer's self time is its wrapped time minus the time of wrapped calls
nested inside it.  Time outside every wrapped call is the process's
unattributed time, so per process::

    sum(layer self times) + probe time + unattributed == process wall

Wrapping happens at class or module level before a process pool forks,
so it reaches the workers.  Each forked worker starts a fresh record and
writes it to ``<outdir>/<pid>.json`` when it exits; :meth:`Recorder
.finish_pass` merges those files with the main process's record.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
import weakref
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: Per-cycle entry points, wrapped at class level in trace mode and
#: aggregated into (calls, self seconds).  (module, class, method, layer)
TICKS = (
    ("repro.cpu.core", "Core", "tick", "cpu.tick"),
    ("repro.uncached.unit", "UncachedUnit", "tick_cpu", "uncached.tick_cpu"),
    ("repro.uncached.unit", "UncachedUnit", "issue_store", "uncached.issue"),
    ("repro.uncached.unit", "UncachedUnit", "issue_swap", "uncached.issue"),
    ("repro.uncached.unit", "UncachedUnit", "issue_sync", "uncached.issue"),
    ("repro.uncached.unit", "UncachedUnit", "issue_load", "uncached.issue"),
    ("repro.bus.arbiter", "BusArbiter", "tick_bus", "bus.tick_bus"),
    ("repro.sim.scheduler", "Scheduler", "tick", "sim.scheduler"),
    ("repro.sim.scheduler", "CoreScheduler", "tick", "sim.scheduler"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "access_latency",
     "memory.access"),
)

#: Coarse methods: timed and recorded as spans in trace mode.
SPAN_METHODS = (
    ("repro.sim.system", "System", "__init__", "sim.build"),
    ("repro.sim.system", "System", "run", "sim.loop"),
    ("repro.sim.system", "System", "run_streamed", "sim.loop"),
    ("repro.sim.cluster", "Cluster", "run", "sim.loop"),
    ("repro.evaluation.runner", "ResultCache", "get", "evaluation.cache.get"),
    ("repro.evaluation.runner", "ResultCache", "put", "evaluation.cache.put"),
    ("repro.evaluation.service", "CampaignStore", "write_status",
     "evaluation.store.write_status"),
)

#: Coarse module-level functions: (defining module, name, layer).  Every
#: ``repro`` module that imported the function gets the wrapper too.
SPAN_FUNCTIONS = (
    ("repro.isa.assembler", "assemble", "isa.assemble"),
    ("repro.workloads.traces.compile", "compile_window",
     "workloads.compile_window"),
    ("repro.evaluation.runner", "execute_job", "evaluation.execute_job"),
    ("repro.evaluation.runner", "job_key", "evaluation.job_key"),
)

#: Generator functions, timed per resumption (aggregated, not spans).
GENERATORS = (
    ("repro.workloads.traces.synth", "synthesize", "workloads.synthesize"),
)

#: Modules whose ``Device`` subclasses have their own ``tick``.
DEVICE_MODULES = (
    "repro.devices.base",
    "repro.devices.ring",
    "repro.devices.dma",
    "repro.devices.nic",
    "repro.devices.sink",
)

#: Simulated counters read off each finished ``System``; all are summed
#: over systems, so ratios are formed from the sums.
COUNTERS = (
    "cycles",
    "core_cycles",
    "bus_cycles",
    "retired",
    "rob_full_stalls",
    "uncached_store_stalls",
    "stores_combined",
    "full_stalls",
    "csb_flushes",
    "csb_flush_conflicts",
    "bus_transactions",
    "bus_busy_cycles",
    "wire_bytes",
    "useful_bytes",
    "rings",
    "ring_enqueued",
    "ring_drops",
    "ring_occupancy",
    "ring_ticks",
)


def layer_names() -> List[str]:
    """Every layer name a trace-mode record can carry."""
    names = {entry[-1] for entry in TICKS + SPAN_METHODS + SPAN_FUNCTIONS}
    names.update(entry[-1] for entry in GENERATORS)
    names.add("devices.tick")
    return sorted(names)


def snapshot(system: Any) -> Dict[str, int]:
    """The simulated counters of one finished system."""
    from repro.devices.ring import DescriptorRing

    stats = system.stats
    get = stats.get
    by_core = stats.transactions_by_core().values()
    rings = [d for d in system.devices if isinstance(d, DescriptorRing)]
    return {
        "cycles": system.cycle,
        "core_cycles": system.cycle * len(system.cores),
        "bus_cycles": system.cycle // system.config.bus.cpu_ratio,
        "retired": get("core.retired"),
        "rob_full_stalls": get("core.rob_full_stalls"),
        "uncached_store_stalls": get("core.uncached_store_stalls"),
        "stores_combined": get("uncached.stores_combined"),
        "full_stalls": get("uncached.full_stalls"),
        "csb_flushes": get("csb.flushes"),
        "csb_flush_conflicts": get("csb.flush_conflicts"),
        "bus_transactions": get("bus.transactions"),
        "bus_busy_cycles": stats.bus_busy_cycles(),
        "wire_bytes": sum(entry["wire_bytes"] for entry in by_core),
        "useful_bytes": sum(entry["useful_bytes"] for entry in by_core),
        "rings": len(rings),
        "ring_enqueued": sum(ring.enqueued for ring in rings),
        "ring_drops": sum(ring.drops for ring in rings),
        "ring_occupancy": sum(ring.occupancy_integral for ring in rings),
        "ring_ticks": sum(ring.ticks for ring in rings),
    }


def add_counters(into: Dict[str, int], counters: Dict[str, int]) -> None:
    for name in COUNTERS:
        into[name] = into.get(name, 0) + counters[name]


class Recorder:
    """The calls, spans and simulated counters of one process's pass.

    The workload brackets each operation with :meth:`begin_op` and
    :meth:`end_op`; in a forked worker every ``execute_job`` call is an
    operation identified by its job.  ``ops`` maps an operation to the
    summed counters of the systems it built (a job simulated twice keeps
    one entry); ``totals`` sums every system the pass built.
    """

    def __init__(self) -> None:
        self.timing = False
        self.installed = False
        self.outdir: Optional[str] = None
        self.worker = False
        self.op = ""
        self.started = 0.0
        self.stack: List[float] = [0.0]
        self.stats: Dict[str, List[float]] = {
            name: [0, 0.0] for name in layer_names()
        }
        #: Seconds spent in the probe's hooks (reading counters).
        self.probe = [0.0]
        self.spans: List[Any] = []
        self.open_spans: List[int] = []
        self.hits = [0]
        self.ops: Dict[str, Dict[str, int]] = {}
        self.totals: Dict[str, int] = {}
        self._serial = itertools.count()
        self._serials: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._pending: Dict[int, Any] = {}
        self._snapshots: Dict[int, Dict[str, int]] = {}
        self._restore: List[Tuple[Any, str, Any]] = []
        mp_util.register_after_fork(self, Recorder._after_fork)

    # -- pass lifecycle -----------------------------------------------------

    def _reset(self) -> None:
        self.stack[:] = [0.0]
        for stat in self.stats.values():
            stat[0] = 0
            stat[1] = 0.0
        self.probe[0] = 0.0
        del self.spans[:]
        del self.open_spans[:]
        self.hits[0] = 0
        self.ops = {}
        self.totals = {name: 0 for name in COUNTERS}
        self._pending.clear()
        self._snapshots.clear()
        self.op = ""
        self.started = clock()

    def start_pass(self, outdir: str) -> None:
        """Forget everything recorded so far; workers forked from now on
        write their records into ``outdir``."""
        os.makedirs(outdir, exist_ok=True)
        self.outdir = outdir
        self._reset()

    def finish_pass(self) -> Dict[str, Any]:
        """This process's record merged with every worker's."""
        self.end_op()
        records = [self._record()]
        outdir = self.outdir
        self.outdir = None
        if outdir is not None:
            for name in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, name), encoding="utf-8") as f:
                    records.append(json.load(f))
        return merge(records)

    def _record(self) -> Dict[str, Any]:
        wall = clock() - self.started
        return {
            "pid": os.getpid(),
            "worker": self.worker,
            "wall_s": wall,
            "unattributed_s": wall - self.stack[0],
            "probe_s": self.probe[0],
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "cache_hits": self.hits[0],
            "spans": [list(span) for span in self.spans if span is not None],
            "ops": self.ops,
            "totals": self.totals,
        }

    def _after_fork(self) -> None:
        if not self.installed:
            return
        self._reset()
        self.worker = True
        mp_util.Finalize(None, self._flush_worker, exitpriority=10)

    def _flush_worker(self) -> None:
        if self.outdir is None:
            return
        self.end_op()
        path = os.path.join(self.outdir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self._record(), handle)

    # -- operations and counters --------------------------------------------

    def begin_op(self, name: str) -> None:
        self.end_op()
        self.op = name

    def end_op(self) -> None:
        """Read every system built since :meth:`begin_op` into ``ops``."""
        for serial, system in self._pending.items():
            self._snapshots[serial] = snapshot(system)
        self._pending.clear()
        if not self._snapshots:
            return
        counters = {name: 0 for name in COUNTERS}
        for snap in self._snapshots.values():
            add_counters(counters, snap)
        self._snapshots.clear()
        add_counters(self.totals, counters)
        if self.op in self.ops:
            # A job simulated twice (two pool workers racing on one key)
            # must read the same; keep one copy so passes compare.
            return
        self.ops[self.op] = counters

    def _built(self, args: tuple, result: Any) -> None:
        system = args[0]
        serial = next(self._serial)
        self._serials[system] = serial
        self._pending[serial] = system

    def _ran(self, args: tuple, result: Any) -> None:
        systems = getattr(args[0], "systems", None) or [args[0]]
        for system in systems:
            serial = self._serials.get(system)
            if serial is None:
                continue
            self._pending.pop(serial, None)
            self._snapshots[serial] = snapshot(system)

    def _job_started(self, args: tuple) -> None:
        if self.worker:
            # Display names repeat across panels (fig5a and fig5b differ
            # only in the warmed lock line), so the identity adds the
            # measurement and its inputs; hashing the job would cost a
            # canonical JSON dump per job.
            job = args[0]
            self.begin_op(
                f"{job.name} {job.measurement} {job.args} "
                f"{getattr(job, 'warm', ())}"
            )

    def _job_finished(self, args: tuple, result: Any) -> None:
        if self.worker:
            self.end_op()

    def _cache_read(self, args: tuple, result: Any) -> None:
        if result is not None:
            self.hits[0] += 1

    # -- installing the wrappers --------------------------------------------

    def install(self, timing: bool) -> None:
        """Patch ``repro`` in place (probe or trace mode)."""
        if self.installed:
            self.uninstall()
        self.timing = timing
        hooks: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
            "System.__init__": (None, self._built),
            "System.run": (None, self._ran),
            "System.run_streamed": (None, self._ran),
            "Cluster.run": (None, self._ran),
            "execute_job": (self._job_started, self._job_finished),
            "ResultCache.get": (None, self._cache_read),
        }
        for module, owner, attr, layer in SPAN_METHODS:
            cls = getattr(importlib.import_module(module), owner)
            before, after = hooks.get(f"{owner}.{attr}", (None, None))
            if timing or after is not None:
                self._patch(cls, attr, self._wrap_span(
                    getattr(cls, attr), layer, before, after))
        for module, name, layer in SPAN_FUNCTIONS:
            original = getattr(importlib.import_module(module), name)
            before, after = hooks.get(name, (None, None))
            if timing or after is not None:
                wrapper = self._wrap_span(original, layer, before, after)
                self._patch_imports(original, wrapper)
        restore_default = _pool_default()
        if restore_default is not None:
            self._restore.append(restore_default)
        if timing:
            for module, owner, attr, layer in TICKS:
                cls = getattr(importlib.import_module(module), owner)
                self._patch(cls, attr, self._wrap_tick(getattr(cls, attr), layer))
            for cls in _device_classes():
                self._patch(cls, "tick",
                            self._wrap_tick(cls.__dict__["tick"], "devices.tick"))
            for module, name, layer in GENERATORS:
                original = getattr(importlib.import_module(module), name)
                self._patch_imports(
                    original, self._wrap_generator(original, layer))
        self.installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.installed = False

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_imports(self, original: Callable, wrapper: Callable) -> None:
        import sys

        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # -- the wrappers ---------------------------------------------------------

    def _wrap_tick(self, fn: Callable, layer: str) -> Callable:
        stack = self.stack
        stat = self.stats[layer]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return wrapper

    def _wrap_generator(self, fn: Callable, layer: str) -> Callable:
        stack = self.stack
        stat = self.stats[layer]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stat[0] += 1
                    stat[1] += elapsed - stack.pop()
                    stack[-1] += elapsed
                yield item

        return wrapper

    def _wrap_span(
        self,
        fn: Callable,
        layer: str,
        before: Optional[Callable],
        after: Optional[Callable],
    ) -> Callable:
        stack = self.stack
        stat = self.stats[layer]
        probe = self.probe
        spans = self.spans
        open_spans = self.open_spans
        recorder = self

        if not self.timing:

            @functools.wraps(fn)
            def probed(*args: Any, **kwargs: Any) -> Any:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return probed

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                hook = clock()
                before(args)
                hook = clock() - hook
                probe[0] += hook
                stack[-1] += hook
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)
            open_spans.append(index)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                open_spans.pop()
                spans[index] = (layer, start, end, parent, recorder.op)
            if after is not None:
                hook = clock()
                after(args, result)
                hook = clock() - hook
                probe[0] += hook
                stack[-1] += hook
            return result

        return wrapper


def _device_classes() -> List[type]:
    """Every ``Device`` class that defines its own ``tick``."""
    for module in DEVICE_MODULES:
        importlib.import_module(module)
    from repro.devices.base import Device

    found, todo = [], [Device]
    while todo:
        cls = todo.pop()
        if "tick" in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _pool_default() -> Optional[Tuple[Any, str, Any]]:
    """Point ``WorkerPool``'s default executor at the current
    ``execute_job`` wrapper.

    The default argument was bound when ``repro.evaluation.service`` was
    imported, so patching the module attribute alone would leave the
    campaign workers calling the unwrapped function.
    """
    from repro.evaluation import runner, service

    init = service.WorkerPool.__init__
    defaults = init.__defaults__ or ()
    original = getattr(runner.execute_job, "__wrapped__", runner.execute_job)
    if original not in defaults:
        return None
    init.__defaults__ = tuple(
        runner.execute_job if value is original else value
        for value in defaults
    )
    return (init, "__defaults__", defaults)


def merge(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-process records into one pass record."""
    stats: Dict[str, List[float]] = {}
    ops: Dict[str, Dict[str, int]] = {}
    totals = {name: 0 for name in COUNTERS}
    spans = []
    processes = []
    hits = 0
    for record in records:
        for name, (calls, self_s) in record["stats"].items():
            entry = stats.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for op, counters in record["ops"].items():
            ops.setdefault(op, counters)
        add_counters(totals, record["totals"])
        spans.extend([record["pid"]] + list(span) for span in record["spans"])
        hits += record["cache_hits"]
        processes.append(
            {
                key: record[key]
                for key in ("pid", "worker", "wall_s", "unattributed_s",
                            "probe_s")
            }
        )
    return {
        "stats": stats,
        "ops": ops,
        "totals": totals,
        "spans": spans,
        "cache_hits": hits,
        "processes": processes,
    }
