"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload splits one pass into three timed phases and checks every
simulated output against a reference after the pass, outside the timed
region.  An operation whose output is missing (an exception stopped the
pass) or differs from the reference counts as failed.

* ``figures``: every non-trace experiment, serially, no result cache,
  compared byte for byte with ``expected_results/<id>.csv``.  Phases:
  the Figure 3 panels, the Figure 4/5 panels, the extension studies.
  One operation is one table.
* ``replay``: one seeded synthetic trace streamed through
  ``replay_trace`` once per discipline (phases: uncached, lock, csb).
  One operation is one trace record.
* ``campaign``: the jobs of the 16 paper panels, run cold and warm
  through ``CampaignStore`` + ``CampaignService`` with two workers, then
  through ``SweepRunner(jobs=2)`` (phases: cold, warm, sweep).  One
  operation is one job of one phase.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Any, Dict, List, Optional

#: The replay seed the recorded report digests belong to.  Seed 20261016
#: was kept out of tuning so claims can be re-checked on it.
DEFAULT_SEED = 1

#: Replay trace shape: 2 cores, 4 descriptor rings, Zipf skew 1.0.
REPLAY_SPEC = "synth:n={n},seed={seed},gap=20,devices=4,skew=1.0,sizes=8:3/64:1"
REPLAY_RECORDS = 1000
REPLAY_CORES = 2

PAPER_PANELS = tuple(
    [f"fig3{p}" for p in "abcdefghi"]
    + [f"fig4{p}" for p in "abcde"]
    + ["fig5a", "fig5b"]
)

#: Reduced inputs for the benchmark's self-tests.
TINY_FIGURES = ("fig3e", "fig5a", "ablation-depth")
TINY_RECORDS = 40
TINY_PANELS = ("fig5a", "fig5b")

HERE = os.path.dirname(os.path.abspath(__file__))


def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


class Workload:
    """One pass = three phases; ``outputs`` holds what the pass produced."""

    name = ""
    labels: tuple = ()
    #: Workload-specific names of the three phase rates, printed beside
    #: the generic ``phaseN_per_s`` metrics.
    phase_names: tuple = ()
    #: Phase indices that run a process pool, with its width.
    pool_phases: Dict[int, int] = {}

    def __init__(self, root: str, seed: int, work: str, tiny: bool) -> None:
        self.root = root
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.outputs: Dict[Any, Any] = {}

    def golden(self, experiment_id: str) -> Optional[str]:
        return _read(
            os.path.join(self.root, "expected_results", f"{experiment_id}.csv")
        )

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> List[int]:
        """Operations in each phase."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget the last pass's outputs and scratch state."""
        self.outputs = {}
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def run_phase(self, index: int, recorder: Any) -> None:
        raise NotImplementedError

    def check(self) -> List[int]:
        """Failed operations per phase of the last pass."""
        raise NotImplementedError

    def expected_sims(self) -> int:
        """Simulations a pass needs when no job is simulated twice
        (0 where no process pool runs)."""
        return 0

    def requeues(self) -> int:
        return 0


class Figures(Workload):
    name = "figures"
    labels = ("fig3", "fig4-5", "extensions")
    phase_names = ("tables_per_s.fig3", "tables_per_s.fig4-5",
                   "tables_per_s.extensions")

    def setup(self) -> None:
        from repro.evaluation.experiments import experiment_ids, run_experiment

        self._run = run_experiment
        ids = [i for i in experiment_ids() if not i.startswith("trace-")]
        if self.tiny:
            ids = list(TINY_FIGURES)
        self.phases = [
            [i for i in ids if i.startswith("fig3")],
            [i for i in ids if i.startswith(("fig4", "fig5"))],
            [i for i in ids if not i.startswith("fig")],
        ]
        self.goldens = {i: self.golden(i) for i in ids}

    def ops(self) -> List[int]:
        return [len(phase) for phase in self.phases]

    def run_phase(self, index: int, recorder: Any) -> None:
        for experiment_id in self.phases[index]:
            recorder.begin_op(experiment_id)
            self.outputs[experiment_id] = self._run(experiment_id).to_csv()

    def check(self) -> List[int]:
        return [
            sum(
                1
                for i in phase
                if self.goldens[i] is None
                or self.outputs.get(i) != self.goldens[i]
            )
            for phase in self.phases
        ]


def replay_summary(result: Any) -> Dict[str, Any]:
    """The simulated part of a replay report (no host time)."""
    return {
        "replayed": result.replayed,
        "recorded": result.histogram.count,
        "cycles": result.cycles,
        "windows": result.windows,
        "latency": result.latency,
        "rings": [
            [r.enqueued, r.drops, r.high_water, r.occupancy_integral, r.ticks]
            for r in result.rings
        ],
    }


def digest(document: Any) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def reference_digests() -> Dict[str, str]:
    """Replay report digests recorded for :data:`DEFAULT_SEED`."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f)["replay_digests"]


class Replay(Workload):
    name = "replay"
    labels = ("uncached", "lock", "csb")
    phase_names = ("records_per_s.uncached", "records_per_s.lock",
                   "records_per_s.csb")

    def setup(self) -> None:
        from repro.common.config import SystemConfig
        from repro.workloads.spec import TraceWorkload
        from repro.workloads.traces.replay import replay_trace

        self._replay = replay_trace
        self.records = TINY_RECORDS if self.tiny else REPLAY_RECORDS
        source = REPLAY_SPEC.format(n=self.records, seed=self.seed)
        self.workloads = [
            TraceWorkload(name=f"perfbench-{d}", source=source, discipline=d)
            for d in self.labels
        ]
        self.config = SystemConfig(num_cores=REPLAY_CORES)
        self.digests = (
            reference_digests()
            if self.seed == DEFAULT_SEED and not self.tiny
            else None
        )

    def ops(self) -> List[int]:
        return [self.records] * len(self.labels)

    def run_phase(self, index: int, recorder: Any) -> None:
        recorder.begin_op(self.labels[index])
        result = self._replay(self.workloads[index], self.config)
        self.outputs[index] = replay_summary(result)

    def check(self) -> List[int]:
        failed = []
        for index, label in enumerate(self.labels):
            summary = self.outputs.get(index)
            ok = summary is not None and self._valid(summary)
            if ok and self.digests is not None:
                ok = digest(summary) == self.digests.get(label)
            failed.append(0 if ok else self.records)
        return failed

    def _valid(self, summary: Dict[str, Any]) -> bool:
        latency = list(summary["latency"].values())
        return (
            summary["replayed"] == self.records
            and summary["recorded"] == self.records
            and latency == sorted(latency)
            and len(latency) == 5
        )


class Campaign(Workload):
    name = "campaign"
    labels = ("cold", "warm", "sweep")
    phase_names = ("jobs_per_s", "warm_jobs_per_s", "sweep_jobs_per_s")
    pool_phases = {0: 2, 1: 2, 2: 2}

    def setup(self) -> None:
        from repro.evaluation.campaign import CampaignManifest, JobSpec
        from repro.evaluation.experiments import EXPERIMENTS
        from repro.evaluation.runner import ResultCache, SweepRunner
        from repro.evaluation.service import CampaignService, CampaignStore

        self._experiments = EXPERIMENTS
        self._sweep = lambda cache: SweepRunner(
            jobs=2, cache=ResultCache(cache)
        )
        self._store = CampaignStore
        self._service = CampaignService
        self.panels = TINY_PANELS if self.tiny else PAPER_PANELS
        capture = _capturing_runner(SweepRunner)()
        self.slices = {}
        for panel in self.panels:
            start = len(capture.seen)
            EXPERIMENTS[panel](capture)
            self.slices[panel] = range(start, len(capture.seen))
        self.manifest = CampaignManifest(
            name="perfbench-paper-panels",
            jobs=tuple(
                JobSpec(
                    workload=job.to_workload(),
                    config=job.config,
                    measurement=job.measurement,
                    args=job.args,
                    name=job.name,
                )
                for job in capture.seen
            ),
        )
        self.goldens = {p: self.golden(p) for p in self.panels}
        self._replaying = _replaying_runner(SweepRunner)

    def ops(self) -> List[int]:
        return [len(self.manifest.jobs)] * len(self.labels)

    def run_phase(self, index: int, recorder: Any) -> None:
        label = self.labels[index]
        recorder.begin_op(label)
        if label == "sweep":
            runner = self._sweep(os.path.join(self.work, "cache-sweep"))
            self.outputs[label] = {
                p: self._experiments[p](runner).to_csv() for p in self.panels
            }
            return
        store = self._store(os.path.join(self.work, f"state-{label}"))
        service = self._service(
            store, workers=2, cache_dir=os.path.join(self.work, "cache-pool")
        )
        key = store.enqueue(self.manifest)
        service.run_one(key)
        self.outputs[label] = store.results_bytes(key)

    def check(self) -> List[int]:
        cold = self._pool_failures("cold")
        warm = self._pool_failures("warm")
        if self.outputs.get("warm") != self.outputs.get("cold"):
            warm |= self._differing_jobs()
        sweep = set()
        tables = self.outputs.get("sweep") or {}
        for panel in self.panels:
            if tables.get(panel) is None or tables[panel] != self.goldens[panel]:
                sweep.update(self.slices[panel])
        return [len(cold), len(warm), len(sweep)]

    def _results(self, label: str) -> Optional[List[Dict[str, Any]]]:
        blob = self.outputs.get(label)
        if blob is None:
            return None
        return json.loads(blob)["results"]

    def _pool_failures(self, label: str) -> set:
        """Jobs not done, plus every job of a panel whose table, rebuilt
        from the pass's values, differs from its golden CSV."""
        results = self._results(label)
        if results is None or len(results) != len(self.manifest.jobs):
            return set(range(len(self.manifest.jobs)))
        failed = {i for i, entry in enumerate(results) if entry["status"] != "done"}
        values = [entry["value"] for entry in results]
        for panel in self.panels:
            runner = self._replaying([values[i] for i in self.slices[panel]])
            try:
                table = self._experiments[panel](runner).to_csv()
            except Exception:  # a missing value fails the whole panel
                table = None
            if table != self.goldens[panel]:
                failed.update(self.slices[panel])
        return failed

    def _differing_jobs(self) -> set:
        cold = self._results("cold") or []
        warm = self._results("warm") or []
        if len(cold) != len(warm):
            return set(range(len(self.manifest.jobs)))
        return {i for i, (c, w) in enumerate(zip(cold, warm)) if c != w}

    def expected_sims(self) -> int:
        # The cold pass and the sweep each start on an empty cache.  The
        # keys are hashed here, after the timed set-up, because only the
        # traced run asks.
        distinct = {spec.cache_key() for spec in self.manifest.jobs}
        return 2 * len(distinct)

    def requeues(self) -> int:
        total = 0
        for label in ("cold", "warm"):
            for entry in self._results(label) or []:
                total += max(0, entry["attempts"] - 1)
        return total


def _capturing_runner(base: type) -> type:
    """A runner that records the jobs a table factory hands it."""

    class Capturing(base):  # type: ignore[misc, valid-type]
        def __init__(self) -> None:
            super().__init__(jobs=1)
            self.seen: List[Any] = []

        def run(self, jobs):  # noqa: D401 - SweepRunner.run signature
            self.seen.extend(jobs)
            return [1] * len(jobs)

    return Capturing


def _replaying_runner(base: type) -> type:
    """A runner that answers a factory's jobs with given values."""

    class Replaying(base):  # type: ignore[misc, valid-type]
        def __init__(self, values: List[Any]) -> None:
            super().__init__(jobs=1)
            self.values = iter(values)

        def run(self, jobs):
            return [next(self.values) for _ in jobs]

    return Replaying


WORKLOADS = {cls.name: cls for cls in (Figures, Replay, Campaign)}
