"""Run manifests and the HTTP metrics scrape endpoint."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.telemetry import (
    MetricsHTTPServer,
    MetricsRegistry,
    git_revision,
    write_run_manifest,
)
from repro.telemetry.export import OPENMETRICS_CONTENT_TYPE
from tests.support.telemetry import parse_openmetrics


def test_manifest_records_provenance(tmp_path):
    path = tmp_path / "manifest.json"
    returned = write_run_manifest(
        path,
        config={"task": "cnn", "rounds": 3, "seed": 17},
        artifacts={"trace": "trace.jsonl", "metrics": None,
                   "history": "hist.json"},
        extra={"result": {"final_metric": 0.91}},
    )
    on_disk = json.loads(path.read_text())
    assert on_disk == returned
    assert on_disk["kind"] == "repro-run-manifest"
    assert on_disk["schema_version"] == 1
    assert on_disk["package_version"]
    assert on_disk["python"].count(".") == 2
    assert isinstance(on_disk["argv"], list)
    assert on_disk["config"] == {"task": "cnn", "rounds": 3, "seed": 17}
    # None-valued artifacts are dropped, the rest kept verbatim
    assert on_disk["artifacts"] == {"trace": "trace.jsonl",
                                    "history": "hist.json"}
    assert on_disk["result"] == {"final_metric": 0.91}


def test_manifest_git_sha_in_repo_checkout():
    # tests run from the repo checkout, so a SHA must be resolvable
    revision = git_revision()
    assert revision is not None
    assert len(revision.replace("-dirty", "")) == 40


def test_git_revision_outside_checkout(tmp_path):
    assert git_revision(cwd=tmp_path) is None


def test_scrape_endpoint_serves_openmetrics():
    metrics = MetricsRegistry()
    metrics.counter("scrapes_total", source="test").inc(3)
    with MetricsHTTPServer(metrics) as server:
        assert server.port > 0
        with urllib.request.urlopen(server.url, timeout=5) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == \
                OPENMETRICS_CONTENT_TYPE
            text = response.read().decode("utf-8")
        families = parse_openmetrics(text)
        assert families["scrapes"].sample_value(
            "scrapes_total", source="test") == 3

        # the endpoint is live: scrape again after more increments
        metrics.counter("scrapes_total", source="test").inc(2)
        with urllib.request.urlopen(server.url, timeout=5) as response:
            families = parse_openmetrics(response.read().decode("utf-8"))
        assert families["scrapes"].sample_value(
            "scrapes_total", source="test") == 5

        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/other", timeout=5)


def test_scrape_endpoint_closes_cleanly():
    server = MetricsHTTPServer(MetricsRegistry())
    url = server.url
    server.close()
    with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
        urllib.request.urlopen(url, timeout=1)
