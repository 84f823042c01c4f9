"""Child processes, the shared fixture, and the correctness references.

The fixture is one ``ExperimentContext(FIXTURE_SEED, scale,
store=...).learn_timeline()`` built with the code under test.  It is
cached under ``.bench_build/e2e/fixture/`` keyed by scale and a hash of
``src/repro``, so it is built once per checkout and rebuilt whenever
the program changes.  It supplies the stored world and timeline that
``relearn_small`` loads, and the conventions and hostname universe the
serving workloads use.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.store import KIND_TIMELINE, KIND_WORLD

from benchmarks.e2e.common import FIXTURE_SEED, HERE, ROOT, SRC, WORK, \
    BenchError, source_hash
from benchmarks.e2e.speed import MEASURED_CPU, on_cpu

CHILD = HERE / "child.py"

#: A pipeline repetition (a SMALL run is ~20 s) never needs longer.
CHILD_TIMEOUT = 150.0
#: The fixture build may run on a cold, busy machine.
FIXTURE_TIMEOUT = 800.0


def spawn(mode: str, args: Dict[str, object],
          timeout: float = CHILD_TIMEOUT) -> Dict[str, object]:
    """Run ``child.py MODE`` to completion on ``MEASURED_CPU``; returns
    its JSON result.

    ``spawned`` (``time.monotonic()`` at spawn) and ``setup_s`` (spawn
    to the child's imports done) are added.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    with on_cpu(MEASURED_CPU):
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, json.dumps(args)],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError("%s child exceeded %.0f s" % (mode, timeout))
        raise
    if proc.returncode != 0:
        raise BenchError("%s child exited %d: %s" % (
            mode, proc.returncode, err.strip()[-2000:]))
    result = json.loads(out.strip().splitlines()[-1])
    result["spawned"] = started
    result["setup_s"] = result["imports_done"] - started
    return result


def _committed(scale: str, seed: int) -> Optional[Dict[str, dict]]:
    path = HERE / "expected" / ("seed%d.json" % seed)
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["sets"] if doc["scale"] == scale else None


def check_sets(scale: str, seed: int,
               sets: Dict[str, dict]) -> List[str]:
    """Mismatches of one run's per-set digests against the reference.

    The reference is the committed ``expected/seed<N>.json`` when it is
    for this scale; otherwise the first run of this seed, scale and
    source in this checkout, which this call records.
    """
    reference = _committed(scale, seed)
    if reference is None:
        record = WORK / "digests" / source_hash()[:16] / (
            "%s-%d.json" % (scale, seed))
        if not record.is_file():
            record.parent.mkdir(parents=True, exist_ok=True)
            tmp = record.with_suffix(".tmp.%d" % os.getpid())
            tmp.write_text(json.dumps(sets), encoding="utf-8")
            os.replace(tmp, record)
        reference = json.loads(record.read_text(encoding="utf-8"))
    mismatches = []
    for label in sorted(set(reference) | set(sets)):
        want, got = reference.get(label), sets.get(label)
        if want is None or got is None:
            mismatches.append("%s missing" % label)
            continue
        for key in ("sha256", "conventions", "items"):
            if want[key] != got[key]:
                mismatches.append("%s %s" % (label, key))
    return mismatches


def ensure_fixture(scale: str) -> Dict[str, object]:
    """The fixture document (``store`` added), building it if needed."""
    key = "%s-%d-%s" % (scale, FIXTURE_SEED, source_hash()[:16])
    path = WORK / "fixture" / key
    if not (path / "fixture.json").is_file():
        tmp = path.with_name(key + ".tmp.%d" % os.getpid())
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            built = spawn("fixture", {"dir": str(tmp), "seed": FIXTURE_SEED,
                                      "scale": scale}, FIXTURE_TIMEOUT)
            mismatches = check_sets(scale, FIXTURE_SEED, built["sets"])
            if mismatches:
                raise BenchError("fixture differs from the reference: %s"
                                 % ", ".join(mismatches))
            try:
                os.replace(tmp, path)
            except OSError:
                pass  # a concurrent run published it first
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    doc = json.loads((path / "fixture.json").read_text(encoding="utf-8"))
    doc["store"] = str(path / "store")
    return doc


def fresh_store(fixture: Dict[str, object], name: str) -> Path:
    """A new store holding only the fixture's worlds/ and timelines/."""
    store = WORK / "tmp" / ("%s-%d" % (name, os.getpid()))
    shutil.rmtree(store, ignore_errors=True)
    for kind in (KIND_WORLD, KIND_TIMELINE):
        shutil.copytree(Path(str(fixture["store"])) / kind, store / kind)
    return store


def write_expected(seed: int, scale: str) -> Path:
    """Build a fixture at ``seed`` and commit its digests as the reference.

    For a change that alters the learned conventions on purpose; the
    change says why.
    """
    tmp = WORK / "tmp" / ("expected-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        built = spawn("fixture", {"dir": str(tmp), "seed": seed,
                                  "scale": scale}, FIXTURE_TIMEOUT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sets = {label: {key: entry[key]
                    for key in ("sha256", "conventions", "items")}
            for label, entry in built["sets"].items()}
    path = HERE / "expected" / ("seed%d.json" % seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "scale": scale, "sets": sets},
                               indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
