"""Run manifests: one JSON document describing an entire pipeline run.

Every traced run (``repro-hoiho run``, experiment commands with
``--trace-out``) writes a ``manifest.json`` next to its trace: the
config fingerprint that keyed the artifact store, toolchain and schema
versions, the seed, per-stage wall/cpu durations aggregated from the
trace's top-level spans, a metrics snapshot, and the trace file path.
The manifest is the durable record a later reader needs to answer
"what exactly produced this result and where did the time go" without
re-running anything.

Schemas for both the manifest and the trace JSONL records are checked
in under ``docs/schemas/`` and mirrored here as code constants (a test
keeps them in sync).  Because the repo is dependency-free, validation
uses :func:`validate_schema`, a small interpreter of the JSON-Schema
subset those schemas use (``type``, ``required``, ``properties``,
``items``, ``enum``) -- enough for CI to reject a malformed manifest
without pulling in ``jsonschema``.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Dict, Iterable, List, Optional

#: v2: ``versions`` drops ``bench_schema``.
MANIFEST_SCHEMA_VERSION = 2

#: JSON-Schema (subset) for manifest.json; mirrored at
#: docs/schemas/manifest.schema.json.
MANIFEST_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["manifest_schema", "fingerprint", "versions", "seed",
                 "scale", "stages", "wall_seconds", "metrics", "trace"],
    "properties": {
        "manifest_schema": {"type": "integer"},
        "fingerprint": {"type": "string"},
        "versions": {
            "type": "object",
            "required": ["repro", "python", "store_schema", "platform"],
            "properties": {
                "repro": {"type": "string"},
                "python": {"type": "string"},
                "store_schema": {"type": "integer"},
                "platform": {"type": "string"},
            },
        },
        "seed": {"type": "integer"},
        "scale": {"type": "string"},
        "stages": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "wall", "cpu", "status"],
                "properties": {
                    "name": {"type": "string"},
                    "wall": {"type": "number"},
                    "cpu": {"type": "number"},
                    "status": {"enum": ["ok", "error"]},
                    "spans": {"type": "integer"},
                },
            },
        },
        "wall_seconds": {"type": "number"},
        "metrics": {"type": "object"},
        "trace": {"type": ["string", "null"]},
    },
}

#: JSON-Schema (subset) for one trace JSONL record; mirrored at
#: docs/schemas/trace.schema.json.
TRACE_RECORD_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["id", "parent", "name", "pid", "start", "wall", "cpu",
                 "status", "attrs", "events"],
    "properties": {
        "id": {"type": "string"},
        "parent": {"type": ["string", "null"]},
        "name": {"type": "string"},
        "pid": {"type": "integer"},
        "start": {"type": "number"},
        "wall": {"type": "number"},
        "cpu": {"type": "number"},
        "status": {"enum": ["ok", "error"]},
        "error": {"type": ["string", "null"]},
        "attrs": {"type": "object"},
        "events": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "at"],
                "properties": {
                    "name": {"type": "string"},
                    "at": {"type": "number"},
                    "attrs": {"type": "object"},
                },
            },
        },
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_schema(value: object, schema: Dict[str, object],
                    path: str = "$") -> List[str]:
    """Check ``value`` against the JSON-Schema subset used by this repo.

    Supports ``type`` (string or list of strings), ``required``,
    ``properties``, ``items``, and ``enum``.  Returns a list of
    human-readable error strings -- empty means valid.
    """
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append("%s: expected %s, got %s"
                          % (path, "/".join(types), type(value).__name__))
            return errors
    if "enum" in schema and value not in schema["enum"]:  # type: ignore
        errors.append("%s: %r not in %r" % (path, value, schema["enum"]))
    if isinstance(value, dict):
        for key in schema.get("required", ()):  # type: ignore
            if key not in value:
                errors.append("%s: missing required key %r" % (path, key))
        properties: Dict[str, Dict[str, object]] = \
            schema.get("properties", {})  # type: ignore
        for key, subschema in properties.items():
            if key in value:
                errors.extend(validate_schema(value[key], subschema,
                                              "%s.%s" % (path, key)))
    if isinstance(value, list) and "items" in schema:
        subschema = schema["items"]  # type: ignore
        for index, item in enumerate(value):
            errors.extend(validate_schema(item, subschema,
                                          "%s[%d]" % (path, index)))
    return errors


def stage_durations(records: Iterable[Dict[str, object]],
                    ) -> List[Dict[str, object]]:
    """Aggregate a trace's top-level spans into per-stage rows.

    Top-level means ``parent is None`` after any worker adoption --
    i.e. the coordinator's own stage spans.  Rows keep the trace's
    chronological order; repeated stage names (e.g. two ``learn.run``
    invocations) aggregate into one row with a span count.
    """
    order: List[str] = []
    rows: Dict[str, Dict[str, object]] = {}
    for record in records:
        if record.get("parent") is not None:
            continue
        name = str(record.get("name", "?"))
        if name not in rows:
            order.append(name)
            rows[name] = {"name": name, "wall": 0.0, "cpu": 0.0,
                          "status": "ok", "spans": 0}
        row = rows[name]
        row["wall"] = float(row["wall"]) + float(record.get("wall", 0.0))
        row["cpu"] = float(row["cpu"]) + float(record.get("cpu", 0.0))
        row["spans"] = int(row["spans"]) + 1
        if record.get("status") == "error":
            row["status"] = "error"
    return [rows[name] for name in order]


def build_manifest(fingerprint: str, seed: int, scale: str,
                   records: Iterable[Dict[str, object]],
                   wall_seconds: float,
                   metrics: Optional[Dict[str, object]] = None,
                   trace_path: Optional[str] = None,
                   ) -> Dict[str, object]:
    """Assemble the manifest document for one run."""
    from repro import __version__
    from repro.store import STORE_SCHEMA_VERSION

    return {
        "manifest_schema": MANIFEST_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "versions": {
            "repro": __version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "store_schema": STORE_SCHEMA_VERSION,
            "platform": platform.platform(),
        },
        "seed": seed,
        "scale": scale,
        "stages": stage_durations(records),
        "wall_seconds": wall_seconds,
        "metrics": metrics if metrics is not None else {},
        "trace": trace_path,
    }


def write_manifest(path: str, manifest: Dict[str, object]) -> None:
    """Validate and write ``manifest`` as pretty-printed JSON."""
    errors = validate_schema(manifest, MANIFEST_SCHEMA)
    if errors:
        raise ValueError("manifest does not match schema:\n  "
                         + "\n  ".join(errors))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def validate_manifest_file(path: str) -> List[str]:
    """Errors for a manifest file (empty list means valid)."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return validate_schema(document, MANIFEST_SCHEMA)


def validate_trace_file(path: str) -> List[str]:
    """Errors across every record of a trace JSONL file."""
    from repro.obs.trace import load_trace
    errors: List[str] = []
    for number, record in enumerate(load_trace(path), 1):
        for error in validate_schema(record, TRACE_RECORD_SCHEMA):
            errors.append("record %d: %s" % (number, error))
    return errors
