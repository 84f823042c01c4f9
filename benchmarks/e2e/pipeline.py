"""The pipeline workloads: ``run_small`` and ``relearn_small``.

Each repetition is a fresh child process (``child.py``) on
``MEASURED_CPU`` with a speed probe beside it (``speed.py``).  The
parent times spawn-to-imports-done as set-up; the child reports the
user CPU time of the run, its peak RSS and its per-set digests, which
the parent checks.  Both times are reported at reference speed.  The
traced run is the same child with the program's tracer switched on.

The run's time is user CPU time only.  A relearn writes 3,302 small
store files, and the kernel time of creating them depends on how
recently files were deleted on the same filesystem, which the benchmark
cannot hold steady: the same relearn took 0.1 s of system time after a
pause and 1.5-1.9 s right after the previous repetition's store was
deleted.  The system time is kept in ``info.sys_s``.
"""

from __future__ import annotations

import shutil
import statistics
from pathlib import Path
from typing import Callable, Dict, List, Optional

from benchmarks.e2e.common import FIXTURE_SEED, Outcome, repeat
from benchmarks.e2e.fixture import check_sets, ensure_fixture, \
    fresh_store, spawn
from benchmarks.e2e.speed import SpeedProbe

#: Extra import-only spawns per untraced run, so set-up has a median.
PROBES = 4


def _probed(run: Callable[[], Dict[str, object]]) -> Dict[str, object]:
    """``run()`` under a speed probe; ``setup_s`` is converted and
    ``run_s`` (the run's user CPU time) added, both at reference
    speed."""
    with SpeedProbe() as probe:
        result = run()
    result["setup_s"] = probe.reference(result["setup_s"],
                                        result["spawned"],
                                        result["imports_done"])
    if "user_s" in result:
        result["run_s"] = probe.reference(result["user_s"],
                                          result["run_start"],
                                          result["run_end"])
        result["slowdown"] = result["user_s"] / result["run_s"]
    return result


def _run(out: Outcome, run: Callable[[], Dict[str, object]], scale: str,
         seed: int) -> Dict[str, object]:
    """One probed run, counted as an operation that fails on a digest
    mismatch."""
    result = _probed(run)
    problems = check_sets(scale, seed, result["sets"])
    out.record(1, 1 if problems else 0, "; ".join(problems))
    return result


def _untraced(out: Outcome, seconds: float, scale: str, seed: int,
              run: Callable[[], Dict[str, object]]) -> List[float]:
    """Import-only spawns, then repetitions of ``run`` for ``seconds``;
    returns the runs' reference-speed times."""
    for _ in range(PROBES):
        out.sample("setup_s", _probed(lambda: spawn("probe", {}))["setup_s"])
    times: List[float] = []

    def rep() -> None:
        result = _run(out, run, scale, seed)
        times.append(float(result["run_s"]))
        out.info.setdefault("slowdowns", []).append(result["slowdown"])
        out.info.setdefault("sys_s", []).append(result["sys_s"])
        out.sample("time_per_op_ms", times[-1] * 1000.0)
        out.sample("peak_rss_mb", result["maxrss_mb"])
        out.sample("setup_s", result["setup_s"])

    out.info["reps"] = repeat(seconds, rep)
    return times


def _traced(out: Outcome, scale: str, seed: int,
            run: Callable[[Optional[Path]], Dict[str, object]],
            times: List[float], trace_path: Path) -> None:
    """The traced run and its layer split.  ``trace.overhead_share``
    compares its reference-speed time with the untraced runs of the
    same code (one more is made when there are none)."""
    if not times:
        times.append(float(_run(out, lambda: run(None), scale,
                                seed)["run_s"]))
    traced = _run(out, lambda: run(trace_path), scale, seed)
    out.layers.update(traced["layers"])
    out.layers["trace.overhead_share"] = \
        traced["run_s"] / statistics.median(times) - 1.0
    out.info["traced_wall_s"] = traced["wall_s"]


def run_small(out: Outcome, seed: int, seconds: float, scale: str,
              measure: bool, trace_path: Optional[Path]) -> None:
    """A storeless ``learn_timeline()`` of the world at ``seed``: the
    unit of ``repro-hoiho run``."""
    def run(trace: Optional[Path] = None) -> Dict[str, object]:
        return spawn("run", {"seed": seed, "scale": scale,
                             "trace": str(trace) if trace else None})

    times = _untraced(out, seconds, scale, seed, run) if measure else []
    if trace_path is not None:
        _traced(out, scale, seed, run, times, trace_path)


def relearn_small(out: Outcome, seed: int, seconds: float, scale: str,
                  measure: bool, trace_path: Optional[Path]) -> None:
    """Load the fixture's stored world and timeline into a fresh store
    and learn through the delta planner, as a ``--cache-dir`` user does
    when iterating on the learner.  The input is the fixture's world
    (seed ``FIXTURE_SEED``); ``seed`` does not change it."""
    fixture = ensure_fixture(scale)
    out.info.update(world_seed=FIXTURE_SEED, fixture_s=fixture["fixture_s"])

    def relearn(trace: Optional[Path] = None) -> Dict[str, object]:
        store = fresh_store(fixture, "relearn")
        try:
            return spawn("relearn", {
                "store": str(store), "seed": FIXTURE_SEED, "scale": scale,
                "trace": str(trace) if trace else None})
        finally:
            shutil.rmtree(store, ignore_errors=True)

    times = _untraced(out, seconds, scale, FIXTURE_SEED, relearn) \
        if measure else []
    if trace_path is not None:
        _traced(out, scale, FIXTURE_SEED, relearn, times, trace_path)
