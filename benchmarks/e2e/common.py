"""Paths, the metric spec, and the small statistics every workload shares."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything the benchmark writes: the cached fixture, per-seed digest
#: records, relearn stores, child traces and temporary files.
WORK = ROOT / ".bench_build" / "e2e"

#: World seed of the shared fixture.  The committed digest in
#: ``expected/seed2020.json`` is for this seed at SMALL scale.
FIXTURE_SEED = 2020


class BenchError(Exception):
    """A failed operation: the run reports it and exits non-zero."""


def require_checkout() -> None:
    """Make the checkout's ``src`` importable; refuse to run without it.

    The benchmark measures the program in its own checkout, never an
    installed copy, so a directory without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit("benchmarks.e2e: no src/repro under %s; run from "
                         "a full checkout of the repository" % ROOT)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the metric names, units, bounds and run length."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def source_hash() -> str:
    """SHA-256 over the program's sources: keys the cached fixture."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: Sequence[float]) -> List[float]:
    """[Q1, median, Q3] as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(values: Sequence[float], unit: str) -> Dict[str, object]:
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": list(values)}


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of exact samples (0 when there are none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def repeat(seconds: float, rep: Callable[[], None]) -> int:
    """Run ``rep`` once, then again while one more of average length
    would end within half a repetition of ``seconds``; returns the
    repetition count."""
    start = time.monotonic()
    count = 0
    while True:
        rep()
        count += 1
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / count > seconds:
            return count


@dataclass
class Outcome:
    """What one workload measured: operations, samples, layer numbers."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: End-to-end metric -> one sample per repetition (or set-up).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-layer metric -> value from the traced run.
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def record(self, attempted: int, failed: int, error: str = "") -> None:
        """Count operations; keep the first few failure messages."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.errors) < 20:
            self.errors.append(error or "%d failed" % failed)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)
