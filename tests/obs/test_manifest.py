"""Run manifests: schema validation, stage aggregation, file round trips."""

import json
import os
import subprocess
import sys

import pytest

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    TRACE_RECORD_SCHEMA,
    build_manifest,
    stage_durations,
    validate_manifest_file,
    validate_schema,
    validate_trace_file,
    write_manifest,
)
from repro.obs.trace import Tracer

SCHEMAS_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                           "docs", "schemas")
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _records():
    tracer = Tracer()
    with tracer.span("stage.world"):
        pass
    with tracer.span("stage.learn"):
        with tracer.span("learn.run"):
            pass
    with tracer.span("stage.learn"):  # repeated stage aggregates
        pass
    return tracer.export()


class TestValidateSchema:
    def test_accepts_valid_document(self):
        assert validate_schema({"a": 1}, {"type": "object"}) == []

    def test_type_mismatch(self):
        errors = validate_schema("nope", {"type": "object"})
        assert errors and "expected object" in errors[0]

    def test_type_list_accepts_any_member(self):
        schema = {"type": ["string", "null"]}
        assert validate_schema(None, schema) == []
        assert validate_schema("x", schema) == []
        assert validate_schema(3, schema)

    def test_missing_required_key(self):
        errors = validate_schema({}, {"type": "object",
                                      "required": ["name"]})
        assert any("missing required key 'name'" in e for e in errors)

    def test_nested_properties_report_paths(self):
        schema = {"type": "object",
                  "properties": {"inner": {"type": "integer"}}}
        errors = validate_schema({"inner": "x"}, schema)
        assert errors == ["$.inner: expected integer, got str"]

    def test_items_validate_each_element(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        errors = validate_schema([1, "two", 3], schema)
        assert len(errors) == 1
        assert "[1]" in errors[0]

    def test_enum(self):
        schema = {"enum": ["ok", "error"]}
        assert validate_schema("ok", schema) == []
        assert validate_schema("meh", schema)

    def test_bool_is_not_an_integer(self):
        assert validate_schema(True, {"type": "integer"})
        assert validate_schema(True, {"type": "boolean"}) == []


class TestStageDurations:
    def test_only_top_level_spans_count(self):
        rows = stage_durations(_records())
        assert [r["name"] for r in rows] == ["stage.world", "stage.learn"]

    def test_repeated_stages_aggregate(self):
        rows = stage_durations(_records())
        learn = rows[1]
        assert learn["spans"] == 2
        assert learn["wall"] >= 0.0

    def test_error_status_is_sticky(self):
        records = [
            {"parent": None, "name": "s", "wall": 1.0, "cpu": 1.0,
             "status": "error"},
            {"parent": None, "name": "s", "wall": 1.0, "cpu": 1.0,
             "status": "ok"},
        ]
        rows = stage_durations(records)
        assert rows[0]["status"] == "error"

    def test_chronological_order_preserved(self):
        records = [
            {"parent": None, "name": "b", "wall": 0.1, "cpu": 0.1,
             "status": "ok"},
            {"parent": None, "name": "a", "wall": 0.1, "cpu": 0.1,
             "status": "ok"},
        ]
        assert [r["name"] for r in stage_durations(records)] == ["b", "a"]


class TestManifest:
    def _manifest(self, trace_path=None):
        return build_manifest(fingerprint="abc123", seed=2020,
                              scale="tiny", records=_records(),
                              wall_seconds=1.5, metrics={"counters": {}},
                              trace_path=trace_path)

    def test_build_manifest_matches_schema(self):
        manifest = self._manifest()
        assert validate_schema(manifest, MANIFEST_SCHEMA) == []
        assert manifest["manifest_schema"] == MANIFEST_SCHEMA_VERSION == 2
        assert manifest["versions"]["python"].count(".") == 2
        assert set(manifest["versions"]) \
            == {"repro", "python", "store_schema", "platform"}

    def test_build_manifest_imports_no_bench_module(self):
        # A fresh interpreter: this one has imported repro.bench.
        script = ("import sys\n"
                  "from repro.obs.manifest import build_manifest\n"
                  "build_manifest('f', 1, 'tiny', [], 0.0)\n"
                  "print('repro.bench' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_write_and_validate_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        write_manifest(path, self._manifest(trace_path="trace.jsonl"))
        assert validate_manifest_file(path) == []
        document = json.loads(open(path, encoding="utf-8").read())
        assert document["fingerprint"] == "abc123"
        assert document["trace"] == "trace.jsonl"

    def test_write_rejects_invalid_manifest(self, tmp_path):
        manifest = self._manifest()
        del manifest["fingerprint"]
        with pytest.raises(ValueError, match="fingerprint"):
            write_manifest(str(tmp_path / "m.json"), manifest)

    def test_validate_manifest_file_reports_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"manifest_schema": "one"}', encoding="utf-8")
        errors = validate_manifest_file(str(path))
        assert errors


class TestTraceValidation:
    def test_real_trace_file_validates(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path=path)
        with tracer.span("outer", k=1) as span:
            span.event("tick")
        tracer.close()
        assert validate_trace_file(path) == []

    def test_malformed_record_is_reported_with_index(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"id": "a"}\n', encoding="utf-8")
        errors = validate_trace_file(str(path))
        assert errors
        assert all(e.startswith("record 1:") for e in errors)


class TestSchemaFilesInSync:
    """The checked-in docs/schemas/*.json must mirror the code constants
    exactly -- CI validates artifacts against the files, the library
    validates against the constants, and they must not drift."""

    def test_manifest_schema_file(self):
        path = os.path.join(SCHEMAS_DIR, "manifest.schema.json")
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == MANIFEST_SCHEMA

    def test_trace_schema_file(self):
        path = os.path.join(SCHEMAS_DIR, "trace.schema.json")
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == TRACE_RECORD_SCHEMA
