"""Golden-bytes pin of the ``csb-campaign-1`` results schema.

Mirrors the PR-8 Finding golden test: the document below is the exact
serialization API consumers (and `GET /campaigns/<key>/results`) rely
on.  If this test fails, either revert the change or bump the schema
tag and document the migration in docs/campaigns.md — never silently
reshape the bytes.  The ``job``/``campaign`` keys hash the full default
``SystemConfig`` plus ``SIM_VERSION``, so an intentional simulator or
config-default change moves them; regenerate with the snippet in this
file's history and review the diff like any expected-results update.

The manifest document ``golden_manifest().to_json()`` is pinned the same
way, in golden/golden-campaign.manifest.json: it is what ``campaign run``
reads and ``POST /campaigns`` accepts, so every field name, the nesting
and every default config value are wire format.  Regenerate with
``PYTHONPATH=src python -c "import sys; from
tests.evaluation.test_schema_golden import golden_manifest;
sys.stdout.write(golden_manifest().to_json())"`` only for an intentional
format change.
"""

import json
import os

from repro.evaluation.campaign import (
    RESULTS_SCHEMA,
    CampaignManifest,
    JobOutcome,
    JobSpec,
    results_document,
    results_to_json,
)
from repro.workloads.spec import ProgramWorkload, TraceWorkload

KERNEL = "set 1, %l0\nset 64, %o1\nstx %l0, [%o1+0]\nhalt"

GOLDEN_MANIFEST = os.path.join(
    os.path.dirname(__file__), "golden", "golden-campaign.manifest.json"
)


def golden_manifest():
    return CampaignManifest(
        name="golden-campaign",
        jobs=(
            JobSpec(
                workload=ProgramWorkload(
                    name="golden-kernel",
                    sources=(("golden-kernel", KERNEL),),
                ),
                measurement="store_bandwidth",
                name="point-a",
            ),
            JobSpec(
                workload=TraceWorkload(
                    name="golden-trace",
                    source="synth:n=8,seed=1,gap=10",
                    window=4,
                ),
                name="point-b",
            ),
        ),
    )


def golden_document():
    return results_document(
        golden_manifest(),
        [
            JobOutcome(index=0, status="done", value=2.5, attempts=1),
            JobOutcome(index=1, status="failed", error="boom", attempts=2),
        ],
    )


GOLDEN_JSON = """\
{
  "campaign": "08896ada42db88209ca107dff09763c7b4031fe643525c1a642eff64cfd77c8b",
  "completed": 1,
  "failed": 1,
  "name": "golden-campaign",
  "results": [
    {
      "args": [],
      "attempts": 1,
      "error": "",
      "index": 0,
      "job": "e24b3b4ced844ebdc235bd783d84ac3d2a1c5a81edda585f27052857288ea9ea",
      "measurement": "store_bandwidth",
      "name": "point-a",
      "status": "done",
      "value": 2.5
    },
    {
      "args": [],
      "attempts": 2,
      "error": "boom",
      "index": 1,
      "job": "3bb8fe90878cc812504fdfaac3a52762a4d527e156f60a7af4f5f8285c7c6cae",
      "measurement": "latency_p99",
      "name": "point-b",
      "status": "failed",
      "value": null
    }
  ],
  "schema": "csb-campaign-1",
  "total": 2
}
"""


class TestGoldenBytes:
    def test_results_document_bytes_are_pinned(self):
        assert results_to_json(golden_document()) == GOLDEN_JSON

    def test_schema_tag_matches_the_constant(self):
        assert json.loads(GOLDEN_JSON)["schema"] == RESULTS_SCHEMA

    def test_keys_are_sorted_at_every_level(self):
        document = json.loads(GOLDEN_JSON)
        assert list(document) == sorted(document)
        for entry in document["results"]:
            assert list(entry) == sorted(entry)

    def test_manifest_bytes_are_pinned(self):
        with open(GOLDEN_MANIFEST, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert golden_manifest().to_json() == golden
        assert CampaignManifest.from_json(golden) == golden_manifest()

    def test_manifest_bytes_round_trip_through_the_golden_shape(self):
        manifest = golden_manifest()
        assert CampaignManifest.from_json(manifest.to_json()) == manifest


class TestPinnedTypes:
    """The wire types consumers may rely on, field by field."""

    def test_field_types(self):
        document = json.loads(results_to_json(golden_document()))
        assert isinstance(document["campaign"], str)
        assert len(document["campaign"]) == 64
        assert isinstance(document["total"], int)
        assert isinstance(document["completed"], int)
        assert isinstance(document["failed"], int)
        done, failed = document["results"]
        assert isinstance(done["value"], float)
        assert failed["value"] is None
        assert isinstance(done["job"], str) and len(done["job"]) == 64
        assert isinstance(done["args"], list)
        assert isinstance(failed["error"], str)
        assert isinstance(failed["attempts"], int)

    def test_statuses_are_the_documented_vocabulary(self):
        document = json.loads(results_to_json(golden_document()))
        assert {entry["status"] for entry in document["results"]} <= {
            "done",
            "failed",
            "drained",
        }
