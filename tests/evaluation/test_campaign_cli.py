"""The ``csb-figures campaign {run,status,example}`` subcommand.

(`campaign serve` is exercised through its building blocks in
test_service_api.py and end-to-end by the CI campaign-smoke job.)
"""

import json

import pytest

from repro.evaluation.campaign import (
    CampaignManifest,
    example_manifest,
    results_to_json,
    run_campaign,
)
from repro.evaluation.cli import main
from tests.evaluation.test_campaign import malformed_manifests, tiny_manifest


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    state = tmp_path / "state"
    cache = tmp_path / "cache"
    monkeypatch.setenv("CSB_STATE_DIR", str(state))
    monkeypatch.setenv("CSB_CACHE_DIR", str(cache))
    return state, cache


def run_cli(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out


class TestExample:
    def test_example_prints_a_loadable_manifest(self, capsys):
        status, out = run_cli(["campaign", "example"], capsys)
        assert status == 0
        assert CampaignManifest.from_json(out) == example_manifest()


class TestRun:
    def test_run_prints_bytes_identical_to_serial(self, dirs, tmp_path, capsys):
        manifest = tiny_manifest()
        path = tmp_path / "manifest.json"
        path.write_text(manifest.to_json())
        status, out = run_cli(
            ["campaign", "run", str(path), "--workers", "2"], capsys
        )
        assert status == 0
        assert out == results_to_json(run_campaign(manifest))

    def test_second_run_serves_stored_results(self, dirs, tmp_path, capsys):
        manifest = tiny_manifest()
        path = tmp_path / "manifest.json"
        path.write_text(manifest.to_json())
        _, first = run_cli(["campaign", "run", str(path)], capsys)
        status, second = run_cli(["campaign", "run", str(path)], capsys)
        assert status == 0
        assert second == first

    def test_missing_manifest_file_errors(self, dirs, capsys):
        status, _ = run_cli(["campaign", "run", "/nonexistent.json"], capsys)
        assert status == 2

    def test_invalid_manifest_errors(self, dirs, tmp_path, capsys):
        path = tmp_path / "bad.json"
        cases = [('{"version": "other"}', "version"), *malformed_manifests()]
        for text, where in cases:
            path.write_text(text)
            status = main(["campaign", "run", str(path)])
            assert status == 2
            assert where in capsys.readouterr().err


class TestStatus:
    def test_listing_and_single_campaign(self, dirs, tmp_path, capsys):
        manifest = tiny_manifest()
        path = tmp_path / "manifest.json"
        path.write_text(manifest.to_json())
        run_cli(["campaign", "run", str(path)], capsys)
        status, out = run_cli(["campaign", "status"], capsys)
        assert status == 0
        listing = json.loads(out)
        assert [c["state"] for c in listing["campaigns"]] == ["done"]
        key = listing["campaigns"][0]["campaign"]
        status, out = run_cli(["campaign", "status", key], capsys)
        assert status == 0
        document = json.loads(out)
        assert document["campaign"] == manifest.cache_key()
        assert document["results_ready"] is True

    def test_unknown_key_errors(self, dirs, capsys):
        status, _ = run_cli(["campaign", "status", "f" * 64], capsys)
        assert status == 2

    def test_malformed_key_errors(self, dirs, capsys):
        status, _ = run_cli(["campaign", "status", "not-a-key"], capsys)
        assert status == 2
