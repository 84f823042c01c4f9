"""``python -m benchmarks.e2e compare --base A1.json ... --new B1.json ...``

Compares results files written with ``--out``.  For each (end-to-end
metric, workload) it prints both medians and quartiles and a verdict
under the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` -- the base's own spread, (Q3 - Q1) / median, exceeds
  the bound, and not every new run reads better than every base run;
* ``worse`` / ``better`` -- the new median moved the wrong / right way
  by more than the bound, as a share of the base median;
* ``same`` -- otherwise.

A side's samples are one median per file; a side with a single file
uses that file's per-repetition values.  With as many base as new
files, runs pair up in order and the share of pairs the new side won is
shown.  Exits 1 on any ``worse`` and on any rise in ``error_rate``.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e.common import load_spec, quartiles


def _entries(docs: Sequence[Dict[str, object]], workload: str,
             metric: str) -> List[Dict[str, object]]:
    """Each file's summary of ``metric`` on ``workload`` (none if any
    file lacks it)."""
    entries = [doc["workloads"][workload]["end_to_end"].get(metric)
               for doc in docs]
    return entries if all(entries) else []


def _samples(entries: Sequence[Dict[str, object]]) -> List[float]:
    if len(entries) == 1:
        return list(entries[0]["values"])
    return [entry["median"] for entry in entries]


def _wins(new: float, base: float, better: str) -> bool:
    return new < base if better == "lower" else new > base


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    q1, median, q3 = quartiles(base)
    worse_by = (quartiles(new)[1] - median) / median
    if better == "higher":
        worse_by = -worse_by
    if (q3 - q1) / median > bound and not all(
            _wins(n, b, better) for n in new for b in base):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _pairs(base: Sequence[Dict[str, object]],
           new: Sequence[Dict[str, object]], better: str) -> str:
    """Share of in-order (base, new) file pairs the new side won."""
    if len(base) != len(new) or len(base) < 2:
        return "-"
    won = sum(_wins(n["median"], b["median"], better)
              for b, n in zip(base, new))
    return "%d/%d" % (won, len(base))


def _load(paths: Sequence[str]) -> List[Dict[str, object]]:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    return docs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base_docs, new_docs = _load(args.base), _load(args.new)
    workloads = [name for name in base_docs[0]["workloads"]
                 if all(name in doc["workloads"]
                        for doc in base_docs + new_docs)]
    end_to_end = load_spec()["end_to_end"]
    failed = False
    print("%-19s %-16s %12s %-25s %12s %-25s %8s %-10s %s" % (
        "workload", "metric", "base", "(q1, q3)", "new", "(q1, q3)",
        "change", "verdict", "pairs won"))
    for workload in workloads:
        for entry in end_to_end:
            base_entries = _entries(base_docs, workload, entry["name"])
            new_entries = _entries(new_docs, workload, entry["name"])
            if not base_entries or not new_entries:
                continue
            base, new = _samples(base_entries), _samples(new_entries)
            outcome = verdict(base, new, entry["better"], entry["bound"])
            failed |= outcome == "worse"
            bq, nq = quartiles(base), quartiles(new)
            print("%-19s %-16s %12.6g %-25s %12.6g %-25s %+7.1f%% %-10s %s"
                  % (workload, entry["name"], bq[1],
                     "(%.6g, %.6g)" % (bq[0], bq[2]), nq[1],
                     "(%.6g, %.6g)" % (nq[0], nq[2]),
                     100.0 * (nq[1] - bq[1]) / bq[1], outcome,
                     _pairs(base_entries, new_entries, entry["better"])))
        base_errors = max(_samples(_entries(base_docs, workload,
                                            "error_rate")))
        new_errors = max(_samples(_entries(new_docs, workload,
                                           "error_rate")))
        failed |= new_errors > base_errors
        print("%-19s %-16s %12.6g %-25s %12.6g %-25s %8s %s" % (
            workload, "error_rate", base_errors, "", new_errors, "", "",
            "worse" if new_errors > base_errors else "same"))
    return 1 if failed else 0
