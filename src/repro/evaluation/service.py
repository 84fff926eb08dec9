"""Campaign service: sharded sweep workers and an HTTP/JSON results API.

This module promotes :class:`~repro.evaluation.runner.SweepRunner` from a
multiprocess CLI into a long-running service, in three layers:

* :class:`WorkerPool` — shards a manifest's jobs across worker
  *processes* with per-worker progress heartbeats, crash-requeue (a
  worker dying mid-job returns the job to the queue at most
  ``max_requeues`` times before it is marked failed — never lost), and a
  graceful drain: once the drain event is set no new job is handed out,
  in-flight jobs finish, and the remainder is reported ``drained``.
  Workers share one hardened :class:`~repro.evaluation.runner
  .ResultCache` directory; the cache's advisory lock and atomic writes
  make that safe, and the pool's results are byte-identical to a serial
  :func:`~repro.evaluation.campaign.run_campaign` of the same manifest.

* :class:`CampaignStore` — the on-disk state of the service: one
  directory per campaign (keyed by :meth:`~repro.evaluation.campaign
  .CampaignManifest.cache_key`) holding ``manifest.json``,
  ``status.json`` (mutable progress: state, counters, worker
  heartbeats), and ``results.json`` (immutable ``csb-campaign-1``
  bytes, written once when the campaign finishes).

* :func:`serve` — a stdlib :class:`~http.server.ThreadingHTTPServer`
  exposing ``GET /campaigns``, ``GET /campaigns/<key>``,
  ``GET /campaigns/<key>/results`` and ``POST /campaigns`` (enqueue),
  with a background thread executing queued campaigns through the pool.
  Results are served as the stored bytes, verbatim — the byte-identity
  invariant holds across HTTP.

See docs/campaigns.md for the endpoint reference and curl examples.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import re
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.evaluation.campaign import (
    CampaignManifest,
    JobOutcome,
    results_document,
    results_to_json,
)
from repro.evaluation.runner import Job, ResultCache, atomic_write, execute_job, job_key

#: Times a job lost to a worker crash is re-queued before it is failed.
DEFAULT_MAX_REQUEUES = 2

#: Seconds between a worker's idle heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

_KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")

#: Campaign lifecycle states recorded in ``status.json``.
CAMPAIGN_STATES = ("queued", "running", "done", "failed", "drained")


def _now() -> float:
    return time.time()


def default_state_dir() -> str:
    """``$CSB_STATE_DIR`` or ``~/.local/state/csb-campaigns``."""
    configured = os.environ.get("CSB_STATE_DIR")
    if configured:
        return configured
    return os.path.join(
        os.path.expanduser("~"), ".local", "state", "csb-campaigns"
    )


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id: int,
    tasks: Any,
    results: Any,
    cache_dir: Optional[str],
    executor: Callable[[Job], Any],
    heartbeat_interval: float,
) -> None:
    """One pool worker: take a task, resolve it (cache first), report.

    Runs in a child process.  The heartbeat thread reports liveness even
    while a long simulation blocks the main loop, so the coordinator can
    tell "slow" from "dead".  ``results`` is this worker's own channel to
    the coordinator; its lock is local to the process, so a worker that
    dies mid-send can only tear its own channel.
    """
    stop = threading.Event()
    send_lock = threading.Lock()

    def send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            results.send(message)

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                send(("heartbeat", worker_id, _now()))
            except Exception:  # pragma: no cover - channel torn down
                return

    heartbeat = threading.Thread(target=beat, daemon=True)
    heartbeat.start()
    cache = ResultCache(cache_dir) if cache_dir else None
    try:
        while True:
            task = tasks.get()
            if task is None:
                send(("bye", worker_id))
                return
            index, job, attempt = task
            send(("start", worker_id, index, attempt, _now()))
            try:
                value = cache.get(job_key(job)) if cache else None
                simulated = value is None
                if value is None:
                    value = executor(job)
                    if cache:
                        cache.put(job_key(job), value, name=job.name)
                send(("done", worker_id, index, attempt, value, simulated))
            except Exception as exc:  # deterministic job failure
                send(
                    (
                        "error",
                        worker_id,
                        index,
                        attempt,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
    finally:
        stop.set()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class _WorkerSlot:
    process: Any
    tasks: Any
    #: Read end of the worker's own result channel; None once it hit EOF
    #: (the worker is gone and :meth:`WorkerPool._reap` recovers its job).
    results: Any
    task: Optional[Tuple[int, Job, int]] = None  # (index, job, attempt)
    last_heartbeat: float = 0.0
    dismissed: bool = False


class WorkerPool:
    """Shards jobs across worker processes; never loses a job.

    ``workers`` is the pool width; ``cache_dir`` (optional) is a shared
    :class:`ResultCache` directory every worker consults and populates.
    ``max_requeues`` bounds how many times a job lost to a worker crash
    is retried before it is marked failed.  ``drain`` is an optional
    :class:`threading.Event`: once set, no new job is dispatched,
    in-flight jobs finish, and undispatched jobs come back ``drained``
    (the SIGTERM path of ``csb-figures campaign``).  ``on_progress`` is
    called after every state change with a status snapshot — the
    campaign store wires this to ``status.json``.

    Results are deterministic: :meth:`run` returns outcomes in input
    order, and a fully ``done`` pool run carries exactly the values a
    serial :class:`~repro.evaluation.runner.SweepRunner` produces.
    """

    def __init__(
        self,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        drain: Optional[threading.Event] = None,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        executor: Callable[[Job], Any] = execute_job,
    ) -> None:
        if workers < 1:
            raise ConfigError("worker pool needs at least one worker")
        if max_requeues < 0:
            raise ConfigError("max_requeues must be >= 0")
        self.workers = workers
        self.cache_dir = cache_dir
        self.max_requeues = max_requeues
        self.heartbeat_interval = heartbeat_interval
        self.drain = drain if drain is not None else threading.Event()
        self.on_progress = on_progress
        self.executor = executor
        #: Jobs actually executed (cache hits excluded), across all workers.
        self.simulated = 0
        #: Total crash-requeues performed.
        self.requeues = 0
        #: worker id -> last heartbeat wall-clock time.
        self.heartbeats: Dict[int, float] = {}
        self._context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self, worker_id: int) -> _WorkerSlot:
        tasks = self._context.Queue()
        # One result channel per worker, not one queue shared by all: the
        # writers of a shared queue share one cross-process lock, and a
        # worker killed while its feeder thread holds it would silence
        # every other worker.
        results, sender = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker_id,
                tasks,
                sender,
                self.cache_dir,
                self.executor,
                self.heartbeat_interval,
            ),
            daemon=True,
        )
        process.start()
        # Only the worker may hold the write end, so its exit reads as EOF.
        sender.close()
        return _WorkerSlot(
            process=process, tasks=tasks, results=results, last_heartbeat=_now()
        )

    @staticmethod
    def _receive(slot: _WorkerSlot) -> List[Tuple[Any, ...]]:
        """Every message waiting on ``slot``'s channel."""
        received: List[Tuple[Any, ...]] = []
        try:
            while slot.results.poll():
                received.append(slot.results.recv())
        except (EOFError, OSError):
            slot.results.close()
            slot.results = None
        return received

    # -- the run loop ------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> List[JobOutcome]:
        """Resolve every job; outcomes are returned in input order."""
        total = len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * total
        if not total:
            return []
        pending: Deque[Tuple[int, Job, int]] = deque(
            (index, job, 1) for index, job in enumerate(jobs)
        )
        slots: Dict[int, _WorkerSlot] = {}
        for worker_id in range(min(self.workers, total)):
            slots[worker_id] = self._spawn(worker_id)

        def unresolved() -> int:
            return sum(1 for outcome in outcomes if outcome is None)

        def in_flight() -> int:
            return sum(1 for slot in slots.values() if slot.task is not None)

        def settle(outcome: JobOutcome) -> None:
            outcomes[outcome.index] = outcome
            self._progress(outcomes, total)

        try:
            while unresolved():
                if self.drain.is_set() and not in_flight():
                    # Graceful drain: everything not yet dispatched is
                    # reported, not silently dropped.
                    while pending:
                        index, _, attempt = pending.popleft()
                        if outcomes[index] is None:
                            settle(
                                JobOutcome(
                                    index=index,
                                    status="drained",
                                    error="campaign drained before dispatch",
                                    attempts=attempt - 1,
                                )
                            )
                    break
                self._dispatch(pending, slots)
                channels = {
                    slot.results: slot
                    for slot in slots.values()
                    if slot.results is not None
                }
                ready = multiprocessing.connection.wait(
                    list(channels), timeout=self.heartbeat_interval
                )
                for channel in ready:
                    for message in self._receive(channels[channel]):
                        self._handle(message, slots, settle)
                self._reap(pending, slots, settle)
        finally:
            self._shutdown(slots)
        return [
            outcome
            if outcome is not None
            else JobOutcome(
                index=index,
                status="drained",
                error="campaign drained before dispatch",
                attempts=0,
            )
            for index, outcome in enumerate(outcomes)
        ]

    def _handle(
        self,
        message: Tuple[Any, ...],
        slots: Dict[int, _WorkerSlot],
        settle: Callable[[JobOutcome], None],
    ) -> None:
        """Apply one worker message to the pool state."""
        kind = message[0]
        if kind == "heartbeat":
            _, worker_id, stamp = message
            self.heartbeats[worker_id] = stamp
            if worker_id in slots:
                slots[worker_id].last_heartbeat = stamp
        elif kind == "start":
            _, worker_id, _, _, stamp = message
            self.heartbeats[worker_id] = stamp
        elif kind == "done":
            _, worker_id, index, attempt, value, simulated = message
            if simulated:
                self.simulated += 1
            if worker_id in slots:
                slots[worker_id].task = None
            settle(
                JobOutcome(
                    index=index,
                    status="done",
                    value=value,
                    attempts=attempt,
                    worker=worker_id,
                )
            )
        elif kind == "error":
            _, worker_id, index, attempt, error = message
            if worker_id in slots:
                slots[worker_id].task = None
            settle(
                JobOutcome(
                    index=index,
                    status="failed",
                    error=error,
                    attempts=attempt,
                    worker=worker_id,
                )
            )
        elif kind == "bye":
            _, worker_id = message
            slot = slots.pop(worker_id, None)
            if slot is not None:
                slot.process.join(timeout=5)
                if slot.results is not None:
                    slot.results.close()

    def _dispatch(
        self,
        pending: Deque[Tuple[int, Job, int]],
        slots: Dict[int, _WorkerSlot],
    ) -> None:
        if self.drain.is_set():
            return
        for slot in slots.values():
            if not pending:
                return
            if slot.task is None and slot.process.is_alive():
                task = pending.popleft()
                slot.task = task
                slot.tasks.put(task)

    def _reap(
        self,
        pending: Deque[Tuple[int, Job, int]],
        slots: Dict[int, _WorkerSlot],
        settle: Callable[[JobOutcome], None],
    ) -> None:
        """Crash-requeue: detect dead workers, recover their jobs."""
        for worker_id, slot in list(slots.items()):
            if slot.process.is_alive():
                continue
            del slots[worker_id]
            if slot.results is not None:
                slot.results.close()
            task = slot.task
            if task is not None:
                index, job, attempt = task
                if attempt > self.max_requeues:
                    settle(
                        JobOutcome(
                            index=index,
                            status="failed",
                            error=(
                                f"worker process died {attempt} time(s) "
                                f"running this job"
                            ),
                            attempts=attempt,
                            worker=worker_id,
                        )
                    )
                else:
                    self.requeues += 1
                    pending.appendleft((index, job, attempt + 1))
            if (pending or any(s.task for s in slots.values())) and not (
                self.drain.is_set() and slot.task is None
            ):
                replacement = max(list(slots) + [worker_id]) + 1
                slots[replacement] = self._spawn(replacement)

    def _shutdown(self, slots: Dict[int, _WorkerSlot]) -> None:
        for slot in slots.values():
            try:
                slot.tasks.put(None)
            except Exception:  # pragma: no cover - queue torn down
                pass
        deadline = _now() + 5.0
        for slot in slots.values():
            slot.process.join(timeout=max(0.1, deadline - _now()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            if slot.results is not None:
                slot.results.close()

    def _progress(
        self, outcomes: Sequence[Optional[JobOutcome]], total: int
    ) -> None:
        if self.on_progress is None:
            return
        done = sum(
            1 for o in outcomes if o is not None and o.status == "done"
        )
        failed = sum(
            1 for o in outcomes if o is not None and o.status == "failed"
        )
        self.on_progress(
            {
                "total": total,
                "completed": done,
                "failed": failed,
                "requeues": self.requeues,
                "workers": {
                    str(worker): {"last_heartbeat_unix": stamp}
                    for worker, stamp in sorted(self.heartbeats.items())
                },
            }
        )


def run_campaign_pooled(
    manifest: CampaignManifest,
    workers: int = 2,
    cache_dir: Optional[str] = None,
    max_requeues: int = DEFAULT_MAX_REQUEUES,
    drain: Optional[threading.Event] = None,
    on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Execute a manifest through a :class:`WorkerPool` and return its
    ``csb-campaign-1`` document — byte-identical, for a fully completed
    run, to :func:`~repro.evaluation.campaign.run_campaign`."""
    pool = WorkerPool(
        workers=workers,
        cache_dir=cache_dir,
        max_requeues=max_requeues,
        drain=drain,
        on_progress=on_progress,
    )
    outcomes = pool.run(manifest.expand())
    return results_document(manifest, outcomes)


# ---------------------------------------------------------------------------
# On-disk campaign store
# ---------------------------------------------------------------------------


class CampaignStore:
    """One directory per campaign: manifest, mutable status, final results.

    Layout under ``root``::

        <campaign key>/manifest.json   # CampaignManifest.to_json bytes
        <campaign key>/status.json     # state + counters + heartbeats
        <campaign key>/results.json    # csb-campaign-1 bytes, written once

    Status writes are atomic (temp + replace) so concurrent API readers
    always see a consistent document.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _dir(self, key: str) -> str:
        if not _KEY_PATTERN.match(key):
            raise ConfigError(f"bad campaign key {key!r}")
        return os.path.join(self.root, key)

    def enqueue(self, manifest: CampaignManifest) -> str:
        """Persist a manifest and mark it queued; returns the key.

        Re-enqueueing a campaign that already has results is a no-op (it
        stays ``done`` — results are immutable and content-addressed).
        """
        key = manifest.cache_key()
        directory = self._dir(key)
        os.makedirs(directory, exist_ok=True)
        atomic_write(
            os.path.join(directory, "manifest.json"), manifest.to_json()
        )
        if self.results_bytes(key) is not None:
            return key
        self.write_status(key, {"state": "queued"})
        return key

    def keys(self) -> List[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(n for n in names if _KEY_PATTERN.match(n))

    def manifest(self, key: str) -> Optional[CampaignManifest]:
        path = os.path.join(self._dir(key), "manifest.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return CampaignManifest.from_json(handle.read())
        except (OSError, ConfigError):
            return None

    def status(self, key: str) -> Optional[Dict[str, Any]]:
        path = os.path.join(self._dir(key), "status.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return None
        return document if isinstance(document, dict) else None

    def write_status(self, key: str, document: Dict[str, Any]) -> None:
        state = document.get("state")
        if state not in CAMPAIGN_STATES:
            raise ConfigError(
                f"unknown campaign state {state!r}; have {CAMPAIGN_STATES}"
            )
        payload = dict(document)
        payload["campaign"] = key
        payload["updated_unix"] = _now()
        atomic_write(
            os.path.join(self._dir(key), "status.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )

    def results_bytes(self, key: str) -> Optional[bytes]:
        """The stored ``csb-campaign-1`` document, verbatim bytes."""
        path = os.path.join(self._dir(key), "results.json")
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def write_results(self, key: str, document: Dict[str, Any]) -> None:
        atomic_write(
            os.path.join(self._dir(key), "results.json"),
            results_to_json(document),
        )

    def describe(self, key: str) -> Optional[Dict[str, Any]]:
        """The status-endpoint document for one campaign."""
        manifest = self.manifest(key)
        if manifest is None:
            return None
        status = self.status(key) or {"state": "queued"}
        document = dict(status)
        document.setdefault("campaign", key)
        document["name"] = manifest.name
        document["jobs"] = len(manifest.jobs)
        document["results_ready"] = self.results_bytes(key) is not None
        return document


# ---------------------------------------------------------------------------
# The service: queued-campaign executor + HTTP API
# ---------------------------------------------------------------------------


class CampaignService:
    """Executes queued campaigns from a :class:`CampaignStore` through a
    :class:`WorkerPool`, updating ``status.json`` as it goes."""

    def __init__(
        self,
        store: CampaignStore,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.store = store
        self.workers = workers
        self.cache_dir = cache_dir
        self.max_requeues = max_requeues
        self.log = log or (lambda message: None)
        self.drain = threading.Event()
        self.wake = threading.Event()

    def queued(self) -> List[str]:
        keys = []
        for key in self.store.keys():
            status = self.store.status(key)
            if status is not None and status.get("state") == "queued":
                keys.append(key)
        return keys

    def run_one(self, key: str) -> bool:
        """Run one stored campaign to completion; True when done."""
        manifest = self.store.manifest(key)
        if manifest is None:
            return False
        self.log(f"campaign {key[:12]}: running {len(manifest.jobs)} job(s)")

        def on_progress(snapshot: Dict[str, Any]) -> None:
            self.store.write_status(key, {"state": "running", **snapshot})

        self.store.write_status(
            key, {"state": "running", "total": len(manifest.jobs)}
        )
        document = run_campaign_pooled(
            manifest,
            workers=self.workers,
            cache_dir=self.cache_dir,
            max_requeues=self.max_requeues,
            drain=self.drain,
            on_progress=on_progress,
        )
        statuses = {entry["status"] for entry in document["results"]}
        if "drained" in statuses:
            state = "drained"
        elif "failed" in statuses:
            state = "failed"
        else:
            state = "done"
        if state != "drained":
            self.store.write_results(key, document)
        self.store.write_status(
            key,
            {
                "state": state,
                "total": document["total"],
                "completed": document["completed"],
                "failed": document["failed"],
            },
        )
        self.log(f"campaign {key[:12]}: {state}")
        return state == "done"

    def run_queued_forever(self) -> None:
        """The background executor loop ``serve`` runs in a thread."""
        while not self.drain.is_set():
            ran = False
            for key in self.queued():
                if self.drain.is_set():
                    break
                self.run_one(key)
                ran = True
            if not ran:
                self.wake.wait(timeout=0.2)
                self.wake.clear()


class _CampaignHandler(BaseHTTPRequestHandler):
    server_version = "csb-campaign/1"
    #: set by make_server
    service: CampaignService

    def _send_json(
        self, payload: Dict[str, Any], code: int = 200
    ) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )
        self._send_bytes(body, code)

    def _send_bytes(self, body: bytes, code: int = 200) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json({"error": message}, code)

    def log_message(self, format: str, *args: Any) -> None:
        self.service.log(
            f"{self.address_string()} {format % args}"
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        store = self.service.store
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["campaigns"]:
            self._send_json(
                {
                    "campaigns": [
                        store.describe(key) for key in store.keys()
                    ]
                }
            )
            return
        if len(parts) in (2, 3) and parts[0] == "campaigns":
            key = parts[1]
            if not _KEY_PATTERN.match(key):
                self._error(404, f"bad campaign key {key!r}")
                return
            if len(parts) == 2:
                description = store.describe(key)
                if description is None:
                    self._error(404, f"no campaign {key}")
                    return
                self._send_json(description)
                return
            if parts[2] == "results":
                body = store.results_bytes(key)
                if body is None:
                    if store.manifest(key) is None:
                        self._error(404, f"no campaign {key}")
                    else:
                        self._error(404, f"campaign {key} has no results yet")
                    return
                self._send_bytes(body)
                return
        self._error(404, f"no route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        if [p for p in self.path.split("?")[0].split("/") if p] != [
            "campaigns"
        ]:
            self._error(404, f"no route {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "bad Content-Length")
            return
        body = self.rfile.read(length)
        try:
            manifest = CampaignManifest.from_json(body.decode("utf-8"))
            key = self.service.store.enqueue(manifest)
        except (ConfigError, UnicodeDecodeError) as exc:
            self._error(400, f"invalid campaign manifest: {exc}")
            return
        self.service.wake.set()
        status = self.service.store.status(key) or {}
        self._send_json(
            {
                "campaign": key,
                "name": manifest.name,
                "state": status.get("state", "queued"),
            },
            code=202,
        )


def make_server(
    service: CampaignService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve ThreadingHTTPServer bound to (host, port)."""
    handler = type(
        "BoundCampaignHandler", (_CampaignHandler,), {"service": service}
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 8731,
    install_signal_handlers: bool = True,
) -> int:
    """Run the campaign service until SIGTERM/SIGINT, then drain.

    SIGTERM sets the service drain event: the executor stops dispatching
    new jobs, in-flight simulations finish, statuses are flushed, and
    the HTTP server shuts down — the graceful-drain contract pinned by
    tests/evaluation/test_service_api.py.
    """
    server = make_server(service, host=host, port=port)

    def shutdown(signum: int, frame: Any) -> None:
        service.log(f"signal {signum}: draining")
        service.drain.set()
        service.wake.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, shutdown)
        signal.signal(signal.SIGINT, shutdown)
    runner = threading.Thread(
        target=service.run_queued_forever, daemon=True
    )
    runner.start()
    bound = server.server_address
    service.log(f"serving campaigns on http://{bound[0]}:{bound[1]}")
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        service.drain.set()
        service.wake.set()
        runner.join(timeout=10)
        server.server_close()
    return 0
