"""Command line: run workloads, print every metric, write results.

``python -m benchmarks.e2e [--workload NAME|all] [--seed N]
[--seconds S] [--trace 0|1] [--quick] [--out PATH]`` runs workloads;
``python -m benchmarks.e2e compare ...`` compares results files (see
``compare.py``); ``python -m benchmarks.e2e expected`` rewrites the
committed digest.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e.common import FIXTURE_SEED, WORK, Outcome, \
    git_commit, load_spec, quartiles, require_checkout, summarize
from benchmarks.e2e.speed import MEASURED_CPU, OTHER_CPU

WORKLOADS = ("run_small", "relearn_small", "serve_single_zipf",
             "serve_batch_unique")
#: ``--quick``: TINY scale, one repetition, 2 s serve phases.
QUICK_PHASE_S = 2.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=FIXTURE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: the traced "
                             "per-layer run only; default both")
    parser.add_argument("--quick", action="store_true",
                        help="TINY scale, 1 rep, 2 s serve phases")
    parser.add_argument("--out", type=Path, default=None,
                        help="results JSON; spans go to OUT.trace.jsonl")
    return parser


def _run_workload(name: str, out: Outcome, seed: int, seconds: float,
                  scale: str, quick: bool, measure: bool,
                  trace_path: Optional[Path]) -> None:
    from benchmarks.e2e import pipeline, serve

    if name == "run_small":
        pipeline.run_small(out, seed, seconds, scale, measure, trace_path)
    elif name == "relearn_small":
        pipeline.relearn_small(out, seed, seconds, scale, measure,
                               trace_path)
    else:
        serve.run(out, seed, seconds, scale, measure, trace_path,
                  batch=name == "serve_batch_unique",
                  phase_s=QUICK_PHASE_S if quick else None)


def _metric_lines(name: str, out: Outcome,
                  units: Dict[str, str]) -> List[str]:
    lines = []
    for metric, values in out.samples.items():
        s = summarize(values, units[metric])
        lines.append("%-19s %-24s %14.6g %-6s (q1 %.6g, q3 %.6g, n=%d)"
                     % (name, metric, s["median"], s["unit"], s["q1"],
                        s["q3"], s["n"]))
    lines.append("%-19s %-24s %14.6g %-6s (%d of %d operations failed)"
                 % (name, "error_rate", _error_rate(out), "ratio",
                    out.failed, out.attempted))
    for metric, value in sorted(out.layers.items()):
        lines.append("%-19s %-24s %14.6g %s" % (name, metric, value,
                                                units[metric]))
    return lines


def _error_rate(out: Outcome) -> float:
    return out.failed / out.attempted if out.attempted else 1.0


def _result_line(outcomes: Dict[str, Outcome], spec: Dict[str, object],
                 measure: bool, traced: bool) -> Dict[str, object]:
    """The final line: every end-to-end metric measured untraced, and
    every per-layer metric when traced (0 for a layer off this
    workload's path).  With several workloads, names get a
    ``workload/`` prefix."""
    metrics: Dict[str, Dict[str, object]] = {}
    for name, out in outcomes.items():
        prefix = "" if len(outcomes) == 1 else name + "/"
        if measure:
            for entry in spec["end_to_end"]:
                values = out.samples.get(entry["name"])
                if values:
                    metrics[prefix + entry["name"]] = {
                        "value": quartiles(values)[1],
                        "unit": entry["unit"]}
        if traced:
            for entry in spec["per_layer"]:
                metrics[prefix + entry["name"]] = {
                    "value": out.layers.get(entry["name"], 0),
                    "unit": entry["unit"]}
    attempted = sum(out.attempted for out in outcomes.values())
    failed = sum(out.failed for out in outcomes.values())
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def _results(outcomes: Dict[str, Outcome], units: Dict[str, str],
             args: argparse.Namespace, scale: str,
             seconds: float) -> Dict[str, object]:
    workloads = {}
    for name, out in outcomes.items():
        end_to_end = {metric: summarize(values, units[metric])
                      for metric, values in out.samples.items()}
        end_to_end["error_rate"] = summarize([_error_rate(out)], "ratio")
        workloads[name] = {
            "attempted": out.attempted, "failed": out.failed,
            "errors": out.errors, "end_to_end": end_to_end,
            "per_layer": {metric: {"value": value, "unit": units[metric]}
                          for metric, value in sorted(out.layers.items())},
            "info": out.info,
        }
    return {
        "machine": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "measured_cpu": MEASURED_CPU, "other_cpu": OTHER_CPU,
            "commit": git_commit(), "seed": args.seed, "scale": scale,
            "seconds": seconds, "quick": args.quick,
            "phases_s": {name: out.info.get("duration_s")
                         for name, out in outcomes.items()},
            "fixture_s": next((out.info["fixture_s"]
                               for out in outcomes.values()
                               if "fixture_s" in out.info), None),
        },
        "workloads": workloads,
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main
        return compare_main(argv[1:])
    require_checkout()
    # SIGTERM unwinds like an exception, so every child gets stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    # Measured processes get MEASURED_CPU to themselves and their probe.
    os.sched_setaffinity(0, {OTHER_CPU})
    if argv[:1] == ["expected"]:
        from benchmarks.e2e.fixture import write_expected
        print(write_expected(FIXTURE_SEED, "small"))
        return 0
    args = _parser().parse_args(argv)
    spec = load_spec()
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    scale = "tiny" if args.quick else "small"
    seconds = 0.0 if args.quick else (
        args.seconds if args.seconds is not None
        else float(spec["run_seconds"]))
    measure, traced = args.trace != 1, args.trace != 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = {name: WORK / "trace" / ("%s-%d.jsonl" % (name, args.seed))
              for name in names} if traced else {}
    (WORK / "trace").mkdir(parents=True, exist_ok=True)
    outcomes: Dict[str, Outcome] = {}
    for name in names:
        out = outcomes[name] = Outcome()
        started = time.monotonic()
        try:
            _run_workload(name, out, args.seed, seconds, scale, args.quick,
                          measure, traces.get(name))
        except Exception as exc:  # report the workload failed, go on
            traceback.print_exc()
            out.record(1, 1, "%s: %s" % (type(exc).__name__, exc))
        out.info["duration_s"] = time.monotonic() - started
        for line in _metric_lines(name, out, units):
            print(line)
        for error in out.errors:
            print("%-19s FAILED: %s" % (name, error))
        sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(
            _results(outcomes, units, args, scale, seconds), indent=2)
            + "\n", encoding="utf-8")
        if traced:
            with open(str(args.out) + ".trace.jsonl", "w",
                      encoding="utf-8") as sink:
                for path in traces.values():
                    if path.is_file():
                        sink.write(path.read_text(encoding="utf-8"))
    result = _result_line(outcomes, spec, measure, traced)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
