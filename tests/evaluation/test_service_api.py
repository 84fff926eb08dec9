"""CampaignStore persistence and the HTTP/JSON results API.

The server binds port 0 (ephemeral) so the suite is parallel-safe; the
headline assertion is that results fetched over HTTP are byte-for-byte
the stored ``csb-campaign-1`` document — which other suites pin against
direct SweepRunner execution.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.common.errors import ConfigError
from repro.evaluation.campaign import results_to_json, run_campaign
from repro.evaluation.service import (
    CampaignService,
    CampaignStore,
    default_state_dir,
    make_server,
)
from tests.evaluation.test_campaign import malformed_manifests, tiny_manifest

BAD_KEY = "f" * 64


@pytest.fixture
def store(tmp_path):
    return CampaignStore(str(tmp_path / "state"))


@pytest.fixture
def api(store, tmp_path):
    """A live server + its background executor; yields the base URL."""
    service = CampaignService(
        store, workers=2, cache_dir=str(tmp_path / "cache")
    )
    server = make_server(service, port=0)
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True),
        threading.Thread(target=service.run_queued_forever, daemon=True),
    ]
    for thread in threads:
        thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}"
    service.drain.set()
    service.wake.set()
    server.shutdown()
    server.server_close()


def get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.load(response)


def get_bytes(url):
    with urllib.request.urlopen(url) as response:
        return response.read()


def post(url, body):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def wait_for_state(base, key, states, tries=300):
    for _ in range(tries):
        _, document = get(f"{base}/campaigns/{key}")
        if document["state"] in states:
            return document
        import time

        time.sleep(0.1)
    raise AssertionError(f"campaign never reached {states}: {document}")


class TestCampaignStore:
    def test_enqueue_then_describe(self, store):
        key = store.enqueue(tiny_manifest())
        assert key == tiny_manifest().cache_key()
        description = store.describe(key)
        assert description["state"] == "queued"
        assert description["name"] == "tiny"
        assert description["jobs"] == 2
        assert description["results_ready"] is False

    def test_results_round_trip_bytes_verbatim(self, store):
        manifest = tiny_manifest()
        key = store.enqueue(manifest)
        document = run_campaign(manifest)
        store.write_results(key, document)
        assert store.results_bytes(key) == results_to_json(document).encode()

    def test_reenqueue_with_results_is_a_noop(self, store):
        manifest = tiny_manifest()
        key = store.enqueue(manifest)
        store.write_results(key, run_campaign(manifest))
        store.write_status(key, {"state": "done"})
        assert store.enqueue(manifest) == key
        assert store.status(key)["state"] == "done"  # not re-queued

    def test_bad_keys_rejected(self, store):
        with pytest.raises(ConfigError):
            store.describe("../escape")
        with pytest.raises(ConfigError):
            store.write_status("zz", {"state": "queued"})

    def test_unknown_state_rejected(self, store):
        key = store.enqueue(tiny_manifest())
        with pytest.raises(ConfigError):
            store.write_status(key, {"state": "napping"})

    def test_missing_campaign_is_none(self, store):
        assert store.describe(BAD_KEY) is None
        assert store.manifest(BAD_KEY) is None
        assert store.results_bytes(BAD_KEY) is None

    def test_default_state_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CSB_STATE_DIR", str(tmp_path / "elsewhere"))
        assert default_state_dir() == str(tmp_path / "elsewhere")
        monkeypatch.delenv("CSB_STATE_DIR")
        assert default_state_dir().endswith("csb-campaigns")


class TestHttpApi:
    def test_end_to_end_post_poll_fetch(self, api, store):
        manifest = tiny_manifest()
        status, posted = post(
            f"{api}/campaigns", manifest.to_json().encode()
        )
        assert status == 202
        assert posted["campaign"] == manifest.cache_key()
        document = wait_for_state(api, posted["campaign"], ("done", "failed"))
        assert document["state"] == "done"
        assert document["results_ready"] is True
        served = get_bytes(f"{api}/campaigns/{posted['campaign']}/results")
        # Byte-identity across the whole service: HTTP == store == serial.
        assert served == store.results_bytes(posted["campaign"])
        assert served == results_to_json(run_campaign(manifest)).encode()

    def test_listing_includes_the_campaign(self, api):
        manifest = tiny_manifest()
        post(f"{api}/campaigns", manifest.to_json().encode())
        _, listing = get(f"{api}/campaigns")
        keys = [entry["campaign"] for entry in listing["campaigns"]]
        assert manifest.cache_key() in keys

    def test_unknown_campaign_404(self, api):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{api}/campaigns/{BAD_KEY}")
        assert excinfo.value.code == 404

    def test_results_before_completion_404(self, api, store):
        store.enqueue(tiny_manifest())  # queued, never executed yet
        key = tiny_manifest().cache_key()
        # The background runner may complete it; only assert the 404 when
        # results are genuinely absent.
        if store.results_bytes(key) is None:
            try:
                get_bytes(f"{api}/campaigns/{key}/results")
            except urllib.error.HTTPError as error:
                assert error.code == 404

    def test_malformed_key_and_route_404(self, api):
        for path in ("/campaigns/nothex", "/nope", "/campaigns/abc/extra"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(f"{api}{path}")
            assert excinfo.value.code == 404

    def test_invalid_manifest_post_400(self, api):
        cases = [('{"version": "nope"}', "version"), *malformed_manifests()]
        for body, path in cases:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(f"{api}/campaigns", body.encode("utf-8"))
            assert excinfo.value.code == 400
            assert path in json.load(excinfo.value)["error"]

    def test_post_to_wrong_route_404(self, api):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{api}/somewhere", b"{}")
        assert excinfo.value.code == 404


class TestServiceDrain:
    def test_drained_service_leaves_campaign_queued_or_drained(
        self, store, tmp_path
    ):
        service = CampaignService(
            store, workers=1, cache_dir=str(tmp_path / "cache")
        )
        key = store.enqueue(tiny_manifest())
        service.drain.set()  # drain before the executor ever dispatches
        service.run_one(key)
        state = store.status(key)["state"]
        assert state == "drained"
        assert store.results_bytes(key) is None  # partial results not stored
