"""The observability smoke: one traced SMALL run under fault injection.

``run --scale small --jobs 2 --retries 2`` runs once, in a child
process as a user would run it, with ``REPRO_FAULT_INJECT`` failing
the first attempt of timeline snapshot 3.  Its trace and manifest must
validate against the checked-in schemas, ``trace summary`` must render
the injected retry, and the trace must show what the run shares: one
campaign walk per (VP, destination AS) group, one graph body per run
of like traces, one public-suffix lookup per distinct hostname, and no
snapshot replaying its campaign or re-deriving its naming.

Tier-1 deselects these tests (``-m 'not slow and not smoke'``);
``pytest tests/integration/test_observability_smoke.py -m smoke`` runs
them.
"""

import json
from pathlib import Path

import pytest

import repro.obs.manifest as manifest_module
from repro.core.resilience import ENV_FAULT_INJECT
from repro.obs.manifest import validate_manifest_file, validate_trace_file
from tests.integration.test_incremental_smoke import _cli, _records

pytestmark = pytest.mark.smoke

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The directory of one traced, fault-injected ``run --scale small``."""
    workdir = tmp_path_factory.mktemp("observability")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_FAULT_INJECT, "timeline:3:raise:0")
        _cli(workdir, "run", "--scale", "small", "--jobs", "2",
             "--retries", "2", "--trace-out", "trace.jsonl",
             "--manifest-out", "manifest.json")
    return workdir


@pytest.fixture(scope="module")
def records(workdir):
    return _records(workdir / "trace.jsonl")


def _total(records, name, key):
    return sum(r["attrs"].get(key, 0) for r in records
               if r["name"] == name)


def test_checked_in_schemas_match_code_constants():
    # The library validates against its code constants; pin the run
    # artifacts to the *checked-in* schema files too.
    for path, constant in (
            ("docs/schemas/manifest.schema.json", "MANIFEST_SCHEMA"),
            ("docs/schemas/trace.schema.json", "TRACE_RECORD_SCHEMA")):
        with open(ROOT / path, encoding="utf-8") as handle:
            assert json.load(handle) == getattr(manifest_module, constant), \
                "%s drifted from the code constant" % path


def test_manifest_and_trace_validate(workdir):
    assert validate_manifest_file(str(workdir / "manifest.json")) == []
    assert validate_trace_file(str(workdir / "trace.jsonl")) == []
    manifest = json.loads((workdir / "manifest.json").read_text())
    stages = [s["name"] for s in manifest["stages"]]
    assert stages == ["stage.world", "stage.timeline", "stage.learn"]


def test_workers_count_their_feature_memo_misses(records):
    # Workers count their own feature-memo misses, so the count
    # survives the --jobs 2 fan-out.
    computed = [r["attrs"].get("features.computed", 0)
                for r in records if r["name"] == "learn.suffix"]
    assert any(c > 0 for c in computed), computed[:10]


def test_summary_renders_the_retry_and_learn_spans(workdir):
    summary = _cli(workdir, "trace", "summary", "trace.jsonl").stdout
    for needle in ("! retry", "learn.group", "learn.plan",
                   "stage.timeline", "snapshot.campaign"):
        assert needle in summary, needle


def test_campaign_walks_and_graph_bodies_are_shared(records):
    # One walk serves a (VP, destination AS) group, and traces
    # sharing hops up to the reply share one graph body.
    walks = _total(records, "snapshot.campaign", "walks")
    traces = _total(records, "snapshot.campaign", "traces")
    assert 0 < walks < traces, (walks, traces)
    bodies = _total(records, "snapshot.graph", "bodies")
    graph_traces = _total(records, "snapshot.graph", "traces")
    assert 0 < bodies <= graph_traces, (bodies, graph_traces)


def test_no_snapshot_replays_or_renames(records):
    # An RTAA build keeps no traces, and a worker's result comes
    # back pickled, without traces or naming records; both derive
    # again only on first read, and a run reads neither, so no
    # snapshot replays its campaign or re-derives its naming.
    replays = [r["attrs"] for r in records
               if r["name"] == "snapshot.replay"]
    assert not replays, replays
    renamings = [r["attrs"] for r in records
                 if r["name"] == "snapshot.renaming"]
    assert not renamings, renamings


def test_learn_groups_look_each_hostname_up_once(records):
    # The training sets share one hostname-to-domain memo, so each
    # distinct hostname is looked up in the public suffix list once.
    hostnames = _total(records, "learn.group", "hostnames")
    items = _total(records, "learn.group", "items")
    assert 0 < hostnames < items, (hostnames, items)
