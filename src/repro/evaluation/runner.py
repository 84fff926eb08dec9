"""Parallel sweep engine with a content-addressed on-disk result cache.

Every table in the reproduction is a sweep of *independent* full-system
simulations; nothing about one (panel, scheme, size) point depends on any
other.  This module describes each point as a picklable job — a
:class:`SimJob` (a kernel and the reading to take), a :class:`TraceJob`
(a trace replay) or a :class:`PointJob` (a study's own point function) —
and executes them through a :class:`SweepRunner` that can fan jobs out
over a process pool and/or resolve them from a content-addressed cache.

Determinism guarantee
---------------------

The simulator is fully deterministic: a job's result is a pure function of
its configuration, kernel, and measurement.  ``SweepRunner.run`` therefore
returns results in *input order* regardless of completion order, so a
parallel sweep is byte-identical to a serial one, and a cached result is
byte-identical to a fresh simulation (values round-trip exactly through
JSON).  The equivalence is enforced by tests/integration/test_runner.py.

Cache keys
----------

A cache entry is keyed by the SHA-256 of the canonical JSON of
(:data:`SIM_VERSION`, config, kernel, measurement, measurement args, warmed
addresses), or of a point job's function name, arguments and config.
Changing any of those produces a different key; bump
:data:`SIM_VERSION` whenever a simulator change may alter timing so stale
entries can never be served.  Corrupt or truncated entries are treated as
misses and recomputed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

try:  # advisory cache locking (POSIX only; the cache degrades gracefully)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.common.config import SamplingConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.common.serialize import apply_overrides, config_to_dict, digest
from repro.isa.assembler import assemble
from repro.sim.system import System
from repro.workloads.spec import ProgramWorkload, TraceWorkload

#: Simulator version tag baked into every cache key.  Bump whenever a
#: change to the simulator could alter any measured number.
SIM_VERSION = "csb-sim-2"

#: Measurement kinds a job may request.
MEASUREMENTS = ("store_bandwidth", "span")

#: Measurements a :class:`TraceJob` may request.  The ``latency_*``
#: entries map to tail percentiles of the per-record latency histogram.
TRACE_MEASUREMENTS = {
    "latency_p50": 50.0,
    "latency_p90": 90.0,
    "latency_p95": 95.0,
    "latency_p99": 99.0,
    "latency_p999": 99.9,
    "cycles": None,
    "transactions": None,
    "device_share": None,
    "mean_occupancy": None,
}

#: One reading: bytes-per-cycle (float) or a cycle count (int).
Reading = Union[int, float]

#: A job result: a reading, or a tuple of readings a point took off one
#: run.  :func:`execute_job` and :meth:`SweepRunner.run` return ``Any``:
#: each table knows which kind its own jobs return.
Result = Union[Reading, Tuple[Reading, ...]]

#: Progress callback: (completed jobs so far, total jobs in this sweep).
ProgressFn = Callable[[int, int], None]


def _stderr_note(message: str) -> None:
    """Default SweepRunner log sink: one line to stderr (never stdout —
    table output must stay byte-identical)."""
    print(message, file=sys.stderr)


@dataclass(frozen=True)
class SimJob:
    """One simulation point, fully described and picklable.

    ``measurement`` selects what to read off the finished system:

    * ``"store_bandwidth"`` — bytes per bus cycle over the uncached-store
      window (the Figure 3/4 metric); ``args`` unused.
    * ``"span"`` — CPU cycles between two ``mark`` labels (the Figure 5
      metric); ``args`` is ``(start_label, end_label)``.

    ``warm`` lists addresses pre-loaded into the cache hierarchy before
    the run (e.g. the lock variable for the warm-lock panels).  ``name``
    is a display label only — it does not affect the result or the cache
    key.
    """

    config: SystemConfig
    kernel: str
    measurement: str = "store_bandwidth"
    args: Tuple[str, ...] = ()
    warm: Tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if self.measurement not in MEASUREMENTS:
            raise ConfigError(
                f"unknown measurement {self.measurement!r}; "
                f"have {MEASUREMENTS}"
            )
        if self.measurement == "span" and len(self.args) != 2:
            raise ConfigError("span measurement needs (start, end) labels")

    @classmethod
    def from_workload(
        cls,
        workload: ProgramWorkload,
        config: SystemConfig,
        measurement: str = "store_bandwidth",
        name: str = "",
    ) -> "SimJob":
        """Build a job from a program-backed workload spec.

        The workload's ``span`` labels become the measurement args when
        ``measurement="span"``; its ``warm`` list carries over directly.
        Field-for-field identical to constructing the job by hand, so the
        cache key — and every previously cached result — is unchanged.
        """
        return cls(
            config=config,
            kernel=workload.source,
            measurement=measurement,
            args=workload.span if measurement == "span" else (),
            warm=workload.warm,
            name=name or workload.name,
        )

    def to_workload(self) -> ProgramWorkload:
        """The job's workload as a spec (for registry round-trips)."""
        return ProgramWorkload(
            name=self.name or "job",
            sources=((self.name or "job", self.kernel),),
            warm=self.warm,
            span=self.args if self.measurement == "span" else (),
        )


@dataclass(frozen=True)
class TraceJob:
    """One trace-replay point: a trace-backed workload, fully described.

    The counterpart of :class:`SimJob` for :class:`TraceWorkload` specs.
    ``measurement`` selects what to read off the finished replay:

    * ``"latency_p50" ... "latency_p999"`` — tail percentiles (CPU
      cycles) of the per-record latency histogram; ``args`` unused.
    * ``"cycles"`` / ``"transactions"`` — run length and records replayed.
    * ``"device_share"`` — fraction of all enqueued descriptors that
      landed on ring ``args[0]`` (the imbalance metric).
    * ``"mean_occupancy"`` — time-averaged depth of ring ``args[0]``.
    """

    config: SystemConfig
    workload: TraceWorkload
    measurement: str = "latency_p99"
    args: Tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if self.measurement not in TRACE_MEASUREMENTS:
            raise ConfigError(
                f"unknown trace measurement {self.measurement!r}; "
                f"have {sorted(TRACE_MEASUREMENTS)}"
            )
        if self.measurement in ("device_share", "mean_occupancy"):
            if len(self.args) != 1:
                raise ConfigError(
                    f"{self.measurement} needs one arg: the device index"
                )
            try:
                int(self.args[0])
            except ValueError:
                raise ConfigError(
                    f"{self.measurement} device index must be an integer, "
                    f"got {self.args[0]!r}"
                ) from None


@dataclass(frozen=True)
class PointJob:
    """One point of a study that builds its own systems (attached devices,
    a two-node cluster, mid-run bus injection).

    The result is ``point(*args, config=config)``; ``point`` is a
    module-level function, so the job pickles by reference.  ``args``
    carry only what the config does not hold (a mechanism, a payload
    size, an iteration count), so overrides reach every system built.
    """

    point: Callable[..., Result]
    args: Tuple[Any, ...]
    config: SystemConfig
    name: str = ""


Job = Union[SimJob, TraceJob, PointJob]


def execute_job(job: Job, observers: Sequence = ()) -> Any:
    """Build the system, run the workload to completion, measure.

    Pure: equal jobs always produce equal results.  This is the function a
    worker process runs, and also the serial fallback.  ``observers`` are
    event sinks attached before the run (tracing is passive, so an
    observed run returns the identical measurement); a point job takes
    none.
    """
    if isinstance(job, PointJob):
        return job.point(*job.args, config=job.config)
    if isinstance(job, TraceJob):
        return _measure_trace(_run_trace(job, observers), job)
    return _measure(run_system(job, observers), job)


def _run_trace(job: TraceJob, observers: Sequence = ()):
    from repro.workloads.traces.replay import TraceReplay

    replay = TraceReplay(job.workload, job.config)
    for sink in observers:
        replay.system.attach_observer(sink)
    return replay.run()


def _measure_trace(outcome, job: TraceJob) -> Result:
    percentile = TRACE_MEASUREMENTS[job.measurement]
    if percentile is not None:
        if not outcome.histogram.count:
            return 0
        return outcome.histogram.percentile(percentile)
    if job.measurement == "cycles":
        return outcome.cycles
    if job.measurement == "transactions":
        return outcome.replayed
    device = int(job.args[0])
    if device >= len(outcome.rings):
        raise ConfigError(
            f"measurement names device {device} but the replay attached "
            f"{len(outcome.rings)} rings"
        )
    if job.measurement == "mean_occupancy":
        return outcome.rings[device].mean_occupancy()
    total = sum(ring.enqueued for ring in outcome.rings)
    if not total:
        return 0.0
    return outcome.rings[device].enqueued / total


def run_system(job: SimJob, observers: Sequence = ()) -> System:
    """Build and run ``job``'s system, returning it for inspection.

    When the job's config enables sampling, the run goes through the
    tiered execution engine (:func:`repro.sim.sampling.run_sampled`);
    otherwise this is exactly ``System.run`` — sampling disabled means the
    detailed code path is untouched, byte for byte.
    """
    system = System(job.config)
    for sink in observers:
        system.attach_observer(sink)
    system.add_process(assemble(job.kernel, name=job.name or "job"))
    for address in job.warm:
        system.warm(address)
    if job.config.sampling.enabled:
        from repro.sim.sampling import run_sampled

        run_sampled(system)
    else:
        system.run()
    return system


def _measure(system: System, job: SimJob) -> Result:
    if job.measurement == "store_bandwidth":
        return system.store_bandwidth
    start, end = job.args
    raw = system.span(start, end)
    report = system.sampling_report
    if report is not None:
        # Sampled run: mark cycles freeze during fast-forward, so the raw
        # span misses skipped work; reconstruct it at the sampled CPI.
        return report.estimate_span(raw, start, end)
    return raw


def job_key(job: Job) -> str:
    """Content hash of everything that determines the job's result.

    Program jobs keep the historical key document exactly (cached results
    survive the workload-spec refactor).  Trace jobs key on the workload's
    own content-addressed :meth:`~repro.workloads.spec.TraceWorkload
    .cache_key`, so a renamed trace file with identical bytes still hits.
    Point jobs key on the function's name, not its code: a change to a
    point's code needs a :data:`SIM_VERSION` bump.
    """
    if isinstance(job, PointJob):
        return digest(
            {
                "version": SIM_VERSION,
                "kind": "point",
                "point": f"{job.point.__module__}.{job.point.__qualname__}",
                "args": list(job.args),
                "config": config_to_dict(job.config),
            }
        )
    if isinstance(job, TraceJob):
        return digest(
            {
                "version": SIM_VERSION,
                "kind": "trace-replay",
                "config": config_to_dict(job.config),
                "workload": job.workload.cache_key(),
                "measurement": job.measurement,
                "args": list(job.args),
            }
        )
    return digest(
        {
            "version": SIM_VERSION,
            "config": config_to_dict(job.config),
            "kernel": job.kernel,
            "measurement": job.measurement,
            "args": list(job.args),
            "warm": list(job.warm),
        }
    )


def entry_digest(document: dict) -> str:
    """Integrity digest of a cache entry: SHA-256 of the canonical JSON of
    everything except the ``sha256`` field itself."""
    payload = {k: v for k, v in document.items() if k != "sha256"}
    return digest(payload)


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` through a fsynced temp file of its
    own (so concurrent writers never collide and no reader or crash sees
    a partial file).  Temp names end in ``.tmp``, not ``.json``, which the
    cache's eviction scan counts; a failed write removes its temp file."""
    fd, temporary = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temporary)
        raise


class ResultCache:
    """Content-addressed result store: one small JSON file per job key.

    Durability and integrity (the shared-store contract the campaign
    service relies on — see docs/campaigns.md):

    * **Atomic writes** — entries land via an fsynced temp file +
      ``os.replace``, so a worker killed mid-write can never leave a
      truncated entry under a final name.
    * **Integrity verification** — every entry carries a SHA-256 over its
      canonical payload, checked on read.  A corrupt or torn entry is
      *evicted* (deleted) and counted in :attr:`integrity_failures`, then
      recomputed as an ordinary miss — it is never served.  Entries
      written before the digest existed verify as legacy and still hit.
    * **Byte-budget LRU eviction** — with ``max_bytes`` set, every store
      evicts least-recently-used entries (file mtime; reads touch) until
      the directory fits the budget.  Evictions are counted in
      :attr:`evictions`; the entry just written always survives.
    * **Advisory locking** — mutations take an ``flock`` on
      ``<dir>/.lock`` so concurrent runners sharing a cache directory
      never interleave eviction scans and writes.  Readers stay lock-free
      (atomic replace makes every read a consistent snapshot).

    A read-only or full cache directory must never fail a sweep: all
    write-path OSErrors degrade to "no cache".
    """

    def __init__(self, directory: str, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ConfigError("cache max_bytes must be >= 1 when set")
        self.directory = directory
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.integrity_failures = 0
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    @contextmanager
    def _lock(self) -> Iterator[None]:
        """Advisory exclusive lock over cache mutations (best effort)."""
        if fcntl is None:
            yield
            return
        try:
            handle = open(os.path.join(self.directory, ".lock"), "a")
        except OSError:
            yield
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            handle.close()  # closing releases the flock

    def _load(self, key: str) -> Optional[dict]:
        """Read and integrity-check one entry document.

        Missing file: plain miss.  Unparseable file or digest mismatch:
        integrity failure — the entry is deleted so it is recomputed
        (and rewritten healthy) instead of failing forever.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                raise ValueError("cache entry must be a JSON object")
            recorded = document.get("sha256")
            if recorded is not None and recorded != entry_digest(document):
                raise ValueError("cache entry digest mismatch")
        except ValueError:
            self.integrity_failures += 1
            self.misses += 1
            self._evict(path)
            return None
        self._touch(path)
        return document

    def _touch(self, path: str) -> None:
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _evict(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def get(self, key: str) -> Optional[Result]:
        """The cached result for ``key``, or None (counted as a miss).
        A tuple is stored as a JSON list of readings."""
        document = self._load(key)
        if document is None:
            return None
        value = document.get("value")
        readings = value if isinstance(value, list) else [value]
        if not readings or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in readings
        ):
            self.misses += 1
            return None
        self.hits += 1
        return tuple(value) if isinstance(value, list) else value

    def put(self, key: str, value: Result, name: str = "") -> None:
        self._write(key, {"version": SIM_VERSION, "name": name, "value": value})

    def _write(self, key: str, document: dict) -> None:
        document = dict(document)
        document["sha256"] = entry_digest(document)
        path = self._path(key)
        try:
            with self._lock():
                atomic_write(path, json.dumps(document))
                self.stores += 1
                self._evict_over_budget(keep=path)
        except OSError:
            # A read-only or full cache directory must never fail a sweep.
            return

    def _evict_over_budget(self, keep: str) -> None:
        """Delete least-recently-used entries until the budget holds.

        The entry at ``keep`` (the one just written) is never evicted —
        a cache that immediately drops what it stores would silently
        disable itself when one entry exceeds the budget.
        """
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for filename in os.listdir(self.directory):
            if not filename.endswith(".json"):
                continue
            path = os.path.join(self.directory, filename)
            try:
                status = os.stat(path)
            except OSError:
                continue
            entries.append((status.st_mtime_ns, path, status.st_size))
            total += status.st_size
        entries.sort()
        for _, path, size in entries:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counter snapshot in the ``cache.*`` namespace (the names the
        campaign status endpoint and docs/campaigns.md use)."""
        return {
            "cache.hits": self.hits,
            "cache.misses": self.misses,
            "cache.stores": self.stores,
            "cache.evictions": self.evictions,
            "cache.integrity_failures": self.integrity_failures,
        }


class SweepRunner:
    """Executes batches of jobs with caching and parallelism.

    ``jobs`` is the maximum number of worker processes; 1 means run
    serially in-process (no pool, no pickling).  ``cache`` is an optional
    :class:`ResultCache` consulted before and populated after simulation.
    ``progress`` is called after every resolved job with
    ``(completed, total)`` — cache hits count immediately.

    Observability: ``observer_factory`` (a callable mapping a job to the
    event sinks to attach) and ``collect_metrics`` (gather a
    :class:`~repro.observability.metrics.MetricsSnapshot` per job into
    :attr:`metrics`) both force *observed mode*: every job simulates
    fresh, serially, in-process — sinks cannot be fed from the cache or
    pickled into a worker.  Measurements are unchanged either way
    (tracing is passive), so the cache is still *written*.  A
    :class:`PointJob` builds its own systems, so it runs without sinks
    and leaves no metrics.

    Tiered execution: ``sampling`` (a :class:`SamplingConfig` with
    ``enabled=True``) rewrites every eligible job to run through the
    sampled engine.  The rewrite happens *before* cache-key computation,
    so sampled results and detailed results occupy disjoint cache
    entries.  Jobs a sampled system cannot represent (SMP, preemptive
    quanta, fault injection, the data cache) keep their detailed
    configuration, as do trace and point jobs — each such fallback is
    recorded in :attr:`sampling_fallbacks` as ``(job name, reason)`` and
    announced once through ``log`` (stderr by default), so a "sampled"
    sweep can never silently run detailed jobs.

    Config overrides: ``overrides`` (the mapping shape
    :func:`~repro.common.serialize.apply_overrides` takes, e.g.
    ``{"mem": {"enabled": True}}``) is merged over every job's own
    configuration before cache keys are computed.  This is how
    ``repro.api.run_experiment(id, config)`` and the CLI's ``--mem``
    reach each simulation point of a sweep.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
        observer_factory: Optional[Callable[[SimJob], Sequence]] = None,
        collect_metrics: bool = False,
        sampling: Optional[SamplingConfig] = None,
        overrides: Optional[Mapping] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError("SweepRunner needs at least one job slot")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.observer_factory = observer_factory
        self.collect_metrics = collect_metrics
        self.sampling = sampling
        self.overrides = dict(overrides) if overrides else None
        self.log = log if log is not None else _stderr_note
        #: job name -> MetricsSnapshot (populated when collect_metrics).
        self.metrics: dict = {}
        self.simulated = 0
        #: (job name, reason) for every job that requested sampling but
        #: had to run detailed.
        self.sampling_fallbacks: List[Tuple[str, str]] = []

    def _with_overrides(self, job: Job) -> Job:
        if not self.overrides:
            return job
        return replace(job, config=apply_overrides(job.config, self.overrides))

    def _with_sampling(self, job: Job) -> Job:
        if self.sampling is None or not self.sampling.enabled:
            return job
        if isinstance(job, TraceJob):
            # Replay must observe every window in the detailed tier — a
            # fast-forwarded window has no bus transactions to attribute.
            return self._fallback(job, "trace replay always runs the detailed tier")
        if isinstance(job, PointJob):
            return self._fallback(job, "a point job builds its own systems")
        try:
            return replace(
                job, config=replace(job.config, sampling=self.sampling)
            )
        except ConfigError as error:
            # Ineligible for sampling (SMP, quantum, faults, data cache):
            # run full detail, and say so — a sampled sweep that quietly
            # simulates detailed jobs misreports its own speedup.
            return self._fallback(job, str(error))

    def _fallback(self, job: Job, reason: str) -> Job:
        """Record and announce that ``job`` runs at the detailed tier."""
        name = job.name or f"job {job_key(job)[:12]}"
        self.sampling_fallbacks.append((name, reason))
        self.log(
            f"note: {name} is ineligible for sampling and runs at "
            f"the detailed tier ({reason})"
        )
        return job

    @property
    def observed(self) -> bool:
        """True when every job must simulate fresh, serially, in-process."""
        return self.observer_factory is not None or self.collect_metrics

    def run(self, jobs: Sequence[Job]) -> List[Any]:
        """Resolve every job; results are returned in input order."""
        jobs = [self._with_sampling(self._with_overrides(job)) for job in jobs]
        total = len(jobs)
        results: Dict[int, Result] = {}
        pending: List[Tuple[int, Job]] = []
        done = 0
        for index, job in enumerate(jobs):
            cached = (
                self.cache.get(job_key(job))
                if self.cache and not self.observed
                else None
            )
            if cached is not None:
                results[index] = cached
                done += 1
                if self.progress:
                    self.progress(done, total)
            else:
                pending.append((index, job))
        if pending:
            done = self._simulate(pending, results, done, total)
        return [results[index] for index in range(total)]

    def _execute_observed(self, job: Job) -> Result:
        if isinstance(job, PointJob):
            # A point builds its own systems, so no sink can reach them;
            # it still runs fresh, like every observed job.
            return execute_job(job)
        observers = (
            self.observer_factory(job) if self.observer_factory else ()
        )
        if isinstance(job, TraceJob):
            outcome = _run_trace(job, observers)
            if self.collect_metrics:
                self.metrics[job.name or job_key(job)] = outcome.metrics
            return _measure_trace(outcome, job)
        system = run_system(job, observers)
        if self.collect_metrics:
            from repro.observability.metrics import MetricsSnapshot

            self.metrics[job.name or job_key(job)] = (
                MetricsSnapshot.from_system(system)
            )
        return _measure(system, job)

    def _simulate(
        self,
        pending: List[Tuple[int, Job]],
        results: Dict[int, Result],
        done: int,
        total: int,
    ) -> int:
        if self.observed:
            for index, job in pending:
                done = self._resolve(
                    index, job, self._execute_observed(job), results, done, total
                )
            return done
        if self.jobs > 1 and len(pending) > 1:
            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(execute_job, job): (index, job)
                    for index, job in pending
                }
                not_done = set(futures)
                while not_done:
                    finished, not_done = wait(
                        not_done, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        index, job = futures[future]
                        done = self._resolve(
                            index, job, future.result(), results, done, total
                        )
        else:
            for index, job in pending:
                done = self._resolve(
                    index, job, execute_job(job), results, done, total
                )
        return done

    def _resolve(
        self,
        index: int,
        job: Job,
        value: Result,
        results: Dict[int, Result],
        done: int,
        total: int,
    ) -> int:
        results[index] = value
        self.simulated += 1
        if self.cache:
            self.cache.put(job_key(job), value, name=job.name)
        if self.progress:
            self.progress(done + 1, total)
        return done + 1

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache else 0


def default_runner() -> SweepRunner:
    """The runner used when an experiment is called without one: serial,
    uncached — exactly the behavior of inlining ``System(...).run()``."""
    return SweepRunner(jobs=1, cache=None)


def default_cache_dir() -> str:
    """Where the CLI keeps its cache: ``$CSB_CACHE_DIR`` if set, else
    ``~/.cache/csb-figures``."""
    configured = os.environ.get("CSB_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "csb-figures")
