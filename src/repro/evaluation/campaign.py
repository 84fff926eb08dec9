"""Campaign manifests: a whole sweep as one serializable, replayable artifact.

A *campaign* bundles everything the disk-trace simulation literature says
a replayable experiment needs — workload, configuration (faults and
sampling ride inside :class:`~repro.common.config.SystemConfig`),
measurement — into a single content-addressed document that expands
deterministically into the existing :class:`~repro.evaluation.runner
.SimJob`/:class:`~repro.evaluation.runner.TraceJob` space.  The same
manifest can be executed serially through a
:class:`~repro.evaluation.runner.SweepRunner`, sharded across the
:class:`~repro.evaluation.service.WorkerPool`, or enqueued over the HTTP
results API — and the headline invariant, enforced by
tests/evaluation/, is that all three produce byte-identical results.

Content addressing follows the :meth:`~repro.workloads.spec
.ProgramWorkload.cache_key` idiom: :meth:`CampaignManifest.cache_key` is
the SHA-256 of the canonical JSON of the manifest's *content* — the
per-job cache keys, which already exclude display names — so renaming a
campaign or a job never invalidates cached results, while any change to
a config knob, kernel byte, or measurement always does.

The finished-results document uses the versioned ``csb-campaign-1``
schema (sorted keys, pinned types; see :func:`results_document` and
docs/campaigns.md) so API consumers can rely on stable bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.serialize import Codec, digest, from_document, to_document
from repro.evaluation.runner import (
    Job,
    Result,
    SimJob,
    SweepRunner,
    TraceJob,
    job_key,
)
from repro.workloads.spec import ProgramWorkload, TraceWorkload, Workload

#: Version tag of the manifest document format (the ``version`` field of
#: every serialized manifest; unknown versions are rejected on revival).
MANIFEST_VERSION = "campaign-manifest-1"

#: Schema tag of the results document served by the campaign API.
RESULTS_SCHEMA = "csb-campaign-1"

#: Job states a results document may report.
JOB_STATUSES = ("done", "failed", "drained")


@dataclass(frozen=True)
class JobSpec(Codec):
    """One campaign entry: a workload, its configuration, a measurement.

    The serializable counterpart of one :class:`SimJob` or
    :class:`TraceJob` — :meth:`to_job` lowers a spec losslessly into the
    job the :class:`~repro.evaluation.runner.SweepRunner` executes, so a
    manifest point and a hand-built job share cache entries.  ``name`` is
    a display label only; it never reaches the cache key.
    """

    workload: Workload
    config: SystemConfig = field(default_factory=SystemConfig)
    measurement: str = ""
    args: Tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.workload, (ProgramWorkload, TraceWorkload)):
            raise ConfigError(
                f"job spec workload must be a workload spec, "
                f"got {type(self.workload).__name__}"
            )
        if not self.measurement:
            default = (
                "latency_p99"
                if isinstance(self.workload, TraceWorkload)
                else "store_bandwidth"
            )
            object.__setattr__(self, "measurement", default)
        self.to_job()  # fail fast: bad measurements/args never enter a manifest

    @property
    def display_name(self) -> str:
        return self.name or self.workload.name

    def to_job(self) -> Job:
        """The runnable job this spec describes."""
        if isinstance(self.workload, TraceWorkload):
            return TraceJob(
                config=self.config,
                workload=self.workload,
                measurement=self.measurement,
                args=self.args,
                name=self.display_name,
            )
        args = self.args
        if self.measurement == "span" and not args:
            args = self.workload.span
        return SimJob(
            config=self.config,
            kernel=self.workload.source,
            measurement=self.measurement,
            args=args,
            warm=self.workload.warm,
            name=self.display_name,
        )

    def cache_key(self) -> str:
        """Content hash of the job this spec expands to (name-free)."""
        return job_key(self.to_job())


@dataclass(frozen=True)
class CampaignManifest:
    """A named, serializable list of :class:`JobSpec` entries.

    ``name`` is display-only.  :meth:`expand` produces the jobs in
    manifest order; :meth:`cache_key` content-addresses the campaign the
    same way :meth:`~repro.workloads.spec.ProgramWorkload.cache_key`
    addresses a workload — renames never move it, content always does.
    """

    name: str
    jobs: Tuple[JobSpec, ...]

    kind = "campaign"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("campaign manifest needs a name")
        if not self.jobs:
            raise ConfigError(f"campaign {self.name!r} has no jobs")
        for spec in self.jobs:
            if not isinstance(spec, JobSpec):
                raise ConfigError(
                    f"campaign {self.name!r}: jobs must be JobSpec entries, "
                    f"got {type(spec).__name__}"
                )

    def expand(self) -> List[Job]:
        """The manifest's jobs, in manifest order — exactly what a
        :class:`SweepRunner` would be handed."""
        return [spec.to_job() for spec in self.jobs]

    def cache_key(self) -> str:
        """Content hash over the per-job cache keys (display names — the
        campaign's and every job's — are excluded by construction).

        A file-backed trace job is keyed by the file's bytes, so a
        ``source`` that cannot be read is refused here with a
        ``ConfigError`` naming its document path.
        """
        keys = []
        for index, spec in enumerate(self.jobs):
            try:
                keys.append(spec.cache_key())
            except OSError as exc:
                raise ConfigError(
                    f"campaign.jobs[{index}].workload.source: cannot read "
                    f"the trace file: {exc}"
                ) from exc
        return digest(
            {"version": MANIFEST_VERSION, "kind": self.kind, "jobs": keys}
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"version": MANIFEST_VERSION, **to_document(self)}

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "CampaignManifest":
        """Strict inverse of :meth:`to_dict`; errors name the document
        path (``campaign.jobs[0].workload.window must be int, ...``)."""
        if isinstance(document, dict):
            document = dict(document)
            version = document.pop("version", MANIFEST_VERSION)
            if version != MANIFEST_VERSION:
                raise ConfigError(
                    f"unsupported campaign manifest version {version!r} "
                    f"(this build reads {MANIFEST_VERSION})"
                )
        return from_document(cls, document, "campaign")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignManifest":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid campaign JSON: {exc}") from exc
        return cls.from_dict(document)


@dataclass(frozen=True)
class JobOutcome:
    """How one manifest job resolved: a value, a failure, or drained.

    ``attempts`` counts executions including crash-requeues; ``worker``
    is the pool worker that produced the final outcome (-1 when the job
    ran in-process or never ran).
    """

    index: int
    status: str = "done"
    value: Optional[Result] = None
    error: str = ""
    attempts: int = 1
    worker: int = -1

    def __post_init__(self) -> None:
        if self.status not in JOB_STATUSES:
            raise ConfigError(
                f"unknown job status {self.status!r}; have {JOB_STATUSES}"
            )
        if self.status == "done" and not isinstance(
            self.value, (int, float)
        ):
            raise ConfigError("a done job outcome needs a numeric value")


def results_document(
    manifest: CampaignManifest, outcomes: Sequence[JobOutcome]
) -> Dict[str, Any]:
    """The ``csb-campaign-1`` results document for a finished campaign.

    Stable contract (see docs/campaigns.md): sorted keys, pinned types,
    jobs in manifest order.  ``value`` is the measurement (int or float,
    exactly the number a direct ``SweepRunner`` run returns) for ``done``
    jobs and null otherwise.  Fields may be added, never renamed or
    removed — tests/evaluation/test_schema_golden.py pins the bytes.
    """
    if len(outcomes) != len(manifest.jobs):
        raise ConfigError(
            f"campaign {manifest.name!r} has {len(manifest.jobs)} jobs "
            f"but {len(outcomes)} outcomes"
        )
    by_index = {outcome.index: outcome for outcome in outcomes}
    if sorted(by_index) != list(range(len(manifest.jobs))):
        raise ConfigError("outcomes must cover every job index exactly once")
    entries = []
    for index, spec in enumerate(manifest.jobs):
        outcome = by_index[index]
        entries.append(
            {
                "index": index,
                "name": spec.display_name,
                "measurement": spec.measurement,
                "args": list(spec.args),
                "job": spec.cache_key(),
                "status": outcome.status,
                "value": outcome.value if outcome.status == "done" else None,
                "error": outcome.error,
                "attempts": outcome.attempts,
            }
        )
    return {
        "schema": RESULTS_SCHEMA,
        "campaign": manifest.cache_key(),
        "name": manifest.name,
        "total": len(entries),
        "completed": sum(1 for e in entries if e["status"] == "done"),
        "failed": sum(1 for e in entries if e["status"] == "failed"),
        "results": entries,
    }


def results_to_json(document: Dict[str, Any]) -> str:
    """Canonical bytes of a results document (the served representation)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def run_campaign(
    manifest: CampaignManifest, runner: Optional[SweepRunner] = None
) -> Dict[str, Any]:
    """Execute a manifest through a :class:`SweepRunner` (serial
    in-process by default) and return its ``csb-campaign-1`` document.

    This is the reference executor the worker pool is measured against:
    for any manifest, :func:`repro.evaluation.service.run_campaign_pooled`
    must produce byte-identical ``results_to_json`` output.
    """
    if runner is None:
        runner = SweepRunner(jobs=1)
    values = runner.run(manifest.expand())
    outcomes = [
        JobOutcome(index=index, status="done", value=value)
        for index, value in enumerate(values)
    ]
    return results_document(manifest, outcomes)


def example_manifest(name: str = "example-campaign") -> CampaignManifest:
    """A small real manifest (used by docs, tests, and the CI smoke job):
    a Figure-3 bandwidth slice plus one synthetic trace-replay point."""
    from repro.evaluation.bandwidth import bandwidth_workload, config_for
    from repro.evaluation.panels import FIG3_PANELS

    panel = FIG3_PANELS["e"]
    jobs = [
        JobSpec(
            workload=bandwidth_workload(panel, scheme, size),
            config=config_for(panel, scheme),
            measurement="store_bandwidth",
        )
        for scheme in ("none", "csb")
        for size in (16, 64)
    ]
    jobs.append(
        JobSpec(
            workload=TraceWorkload(
                name="synthetic-burst",
                source="synth:n=120,seed=7,gap=40,devices=2",
                discipline="csb",
                window=64,
            ),
            measurement="latency_p99",
        )
    )
    return CampaignManifest(name=name, jobs=tuple(jobs))
