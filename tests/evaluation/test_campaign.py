"""Campaign manifests: lowering, content addressing, serial execution."""

import copy
import json

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.evaluation.bandwidth import bandwidth_job, bandwidth_workload, config_for
from repro.evaluation.campaign import (
    MANIFEST_VERSION,
    CampaignManifest,
    JobOutcome,
    JobSpec,
    example_manifest,
    results_document,
    run_campaign,
)
from repro.evaluation.panels import FIG3_PANELS
from repro.evaluation.runner import SimJob, TraceJob, job_key
from repro.workloads.spec import ProgramWorkload, TraceWorkload
from tests.conftest import registry_targets, smp_dephased_sources

PANEL = FIG3_PANELS["e"]


def small_spec(size=16, scheme="none", name=""):
    return JobSpec(
        workload=bandwidth_workload(PANEL, scheme, size),
        config=config_for(PANEL, scheme),
        measurement="store_bandwidth",
        name=name,
    )


def tiny_manifest(name="tiny"):
    return CampaignManifest(
        name=name, jobs=(small_spec(16), small_spec(16, "csb"))
    )


def malformed_manifests():
    """Manifest texts from outside that must be refused, each with the
    document path the refusal has to name: a trace workload without a
    ``name``, one whose ``window`` is a string, and one whose ``source``
    names a file that does not exist."""
    document = CampaignManifest(
        name="malformed",
        jobs=(
            JobSpec(
                workload=TraceWorkload(
                    name="t", source="synth:n=10,seed=1,gap=40", window=8
                )
            ),
        ),
    ).to_dict()
    nameless = copy.deepcopy(document)
    del nameless["jobs"][0]["workload"]["name"]
    stringly = copy.deepcopy(document)
    stringly["jobs"][0]["workload"]["window"] = "64"
    missing = copy.deepcopy(document)
    missing["jobs"][0]["workload"]["source"] = "/nonexistent-csb-dir/gone.trace"
    return [
        (json.dumps(nameless), "campaign.jobs[0].workload.name"),
        (json.dumps(stringly), "campaign.jobs[0].workload.window"),
        (json.dumps(missing), "campaign.jobs[0].workload.source"),
    ]


class TestJobSpec:
    def test_lowers_to_the_same_job_as_the_figure_harness(self):
        spec = small_spec(16)
        job = spec.to_job()
        assert isinstance(job, SimJob)
        # A manifest point and the hand-built figure job share the cache.
        assert job_key(job) == job_key(bandwidth_job(PANEL, "none", 16))

    def test_trace_workload_lowers_to_a_trace_job(self):
        spec = JobSpec(
            workload=TraceWorkload(
                name="t", source="synth:n=10,seed=1,gap=40", window=8
            )
        )
        job = spec.to_job()
        assert isinstance(job, TraceJob)
        assert spec.measurement == "latency_p99"  # trace default

    def test_program_default_measurement_is_store_bandwidth(self):
        spec = JobSpec(workload=bandwidth_workload(PANEL, "none", 16))
        assert spec.measurement == "store_bandwidth"

    def test_bad_measurement_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            JobSpec(
                workload=bandwidth_workload(PANEL, "none", 16),
                measurement="nonsense",
            )

    def test_workload_type_checked(self):
        with pytest.raises(ConfigError):
            JobSpec(workload="not a workload")

    def test_round_trip_preserves_identity_and_key(self):
        spec = small_spec(64, "csb", name="renamed")
        revived = JobSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert revived == spec
        assert revived.cache_key() == spec.cache_key()

    def test_unknown_fields_rejected(self):
        document = small_spec().to_dict()
        document["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            JobSpec.from_dict(document)

    def test_display_name_never_reaches_the_cache_key(self):
        a = small_spec(16, name="one")
        b = small_spec(16, name="two")
        assert a.cache_key() == b.cache_key()

    def test_registry_kernel_becomes_a_spec(self):
        # Any shipped kernel from the shared registry walk is campaignable.
        target = next(iter(registry_targets().values()))
        spec = JobSpec(
            workload=ProgramWorkload(
                name=target.name, sources=((target.name, target.source),)
            ),
            config=SystemConfig(),
        )
        assert spec.cache_key()

    def test_smp_dephased_workload_round_trips(self):
        # The shared SMP de-phase idiom produces a serializable workload
        # (multi-source workloads ride in manifests once JobSpec grows an
        # SMP lowering; the spec layer already round-trips them).
        sources = smp_dephased_sources(2, 3)
        workload = ProgramWorkload(
            name="smp-pair",
            sources=tuple((f"core{i}", s) for i, s in enumerate(sources)),
        )
        revived = ProgramWorkload.from_dict(
            json.loads(json.dumps(workload.to_dict()))
        )
        assert revived == workload
        assert revived.cache_key() == workload.cache_key()
        assert ".STAGGER" in sources[1] and ".STAGGER" not in sources[0]


class TestCampaignManifest:
    def test_requires_name_and_jobs(self):
        with pytest.raises(ConfigError):
            CampaignManifest(name="", jobs=(small_spec(),))
        with pytest.raises(ConfigError):
            CampaignManifest(name="x", jobs=())
        with pytest.raises(ConfigError):
            CampaignManifest(name="x", jobs=("not a spec",))

    def test_expand_preserves_manifest_order(self):
        manifest = tiny_manifest()
        names = [job.name for job in manifest.expand()]
        assert names == [spec.display_name for spec in manifest.jobs]

    def test_json_round_trip(self):
        manifest = example_manifest()
        revived = CampaignManifest.from_json(manifest.to_json())
        assert revived == manifest
        assert revived.cache_key() == manifest.cache_key()

    def test_rename_keeps_the_cache_key(self):
        assert (
            tiny_manifest("alpha").cache_key()
            == tiny_manifest("beta").cache_key()
        )

    def test_content_change_moves_the_cache_key(self):
        bigger = CampaignManifest(
            name="tiny", jobs=(small_spec(32), small_spec(16, "csb"))
        )
        assert bigger.cache_key() != tiny_manifest().cache_key()

    def test_unknown_fields_and_versions_rejected(self):
        document = tiny_manifest().to_dict()
        document["extra"] = True
        with pytest.raises(ConfigError, match="extra"):
            CampaignManifest.from_dict(document)
        document = tiny_manifest().to_dict()
        document["version"] = "campaign-manifest-99"
        with pytest.raises(ConfigError, match="version"):
            CampaignManifest.from_dict(document)

    def test_serialized_version_tag(self):
        assert tiny_manifest().to_dict()["version"] == MANIFEST_VERSION

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["jobs"][4]["workload"].pop("name"),
             r"campaign\.jobs\[4\]\.workload\.name is required"),
            (lambda d: d["jobs"][4]["workload"].update(window="64"),
             r"campaign\.jobs\[4\]\.workload\.window must be int, got '64'"),
            (lambda d: d["jobs"][4]["workload"].update(windw=64),
             r"campaign\.jobs\[4\]\.workload: unknown fields \['windw'\]"),
            (lambda d: d["jobs"][0]["workload"].update(sources=[["a"]]),
             r"campaign\.jobs\[0\]\.workload\.sources\[0\] must have 2 items"),
            (lambda d: d["jobs"][0]["workload"].update(kind="quantum"),
             r"campaign\.jobs\[0\]\.workload\.kind must be one of"),
            (lambda d: d["jobs"][0].update(args=5),
             r"campaign\.jobs\[0\]\.args must be a list, got 5"),
            (lambda d: d["jobs"][0].update(args=[5]),
             r"campaign\.jobs\[0\]\.args\[0\] must be str"),
            (lambda d: d["jobs"][0].update(workload=[1]),
             r"campaign\.jobs\[0\]\.workload must be a mapping"),
            (lambda d: d.update(name=7), r"campaign\.name must be str, got 7"),
            (lambda d: d["jobs"][1]["config"]["bus"].update(cpu_ratio="6"),
             r"campaign\.jobs\[1\]\.config\.bus\.cpu_ratio must be int"),
        ],
    )
    def test_malformed_documents_name_their_path(self, edit, message):
        document = example_manifest().to_dict()
        edit(document)
        with pytest.raises(ConfigError, match=message):
            CampaignManifest.from_dict(document)


class TestResultsDocument:
    def test_outcomes_must_cover_every_index_exactly_once(self):
        manifest = tiny_manifest()
        with pytest.raises(ConfigError):
            results_document(manifest, [JobOutcome(index=0, value=1.0)])
        with pytest.raises(ConfigError):
            results_document(
                manifest,
                [JobOutcome(index=0, value=1.0), JobOutcome(index=0, value=2.0)],
            )

    def test_done_outcome_needs_a_numeric_value(self):
        with pytest.raises(ConfigError):
            JobOutcome(index=0, status="done", value=None)
        with pytest.raises(ConfigError):
            JobOutcome(index=0, status="unheard-of")

    def test_counts_and_null_values(self):
        manifest = tiny_manifest()
        document = results_document(
            manifest,
            [
                JobOutcome(index=0, status="done", value=2.5),
                JobOutcome(index=1, status="failed", error="boom", attempts=3),
            ],
        )
        assert (document["total"], document["completed"], document["failed"]) == (
            2,
            1,
            1,
        )
        failed = document["results"][1]
        assert failed["value"] is None
        assert failed["error"] == "boom"
        assert failed["attempts"] == 3


class TestRunCampaign:
    def test_serial_run_produces_done_results(self):
        document = run_campaign(tiny_manifest())
        assert document["completed"] == document["total"] == 2
        assert all(
            isinstance(entry["value"], (int, float))
            for entry in document["results"]
        )

    def test_example_manifest_is_valid_and_mixed(self):
        manifest = example_manifest()
        kinds = {type(spec.workload).__name__ for spec in manifest.jobs}
        assert kinds == {"ProgramWorkload", "TraceWorkload"}
        assert CampaignManifest.from_json(manifest.to_json()) == manifest
