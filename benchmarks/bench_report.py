"""Benchmark-regression report: refresh and check ``BENCH_learner.json``.

Thin runner around :mod:`repro.bench` so the report can be produced
either from the benchmarks directory (``python benchmarks/bench_report.py``)
or via the console script (``repro-hoiho bench``) / ``make bench``.

The report has one section per row of :data:`repro.bench.SECTIONS`:

* ``learner`` (top-level keys): suffix-learn wall time cached and
  uncached, the cache work counters, ``evaluate_nc`` cold vs warm, and
  serial vs parallel ``Hoiho.run_datasets``;
* ``pipeline``: serial vs parallel timeline builds, eager vs lazy
  routing, and cold vs warm artifact-store runs;
* ``serve``: the linear apply loop vs fused-regex suffix-trie dispatch
  (cold and warm), the memoized Zipf hot path, and serial vs parallel
  bulk annotation; ``dispatch`` refreshes just the single-core kernels,
  keeping the fan-out numbers;
* ``obs``: tracer overhead with tracing disabled (the no-op span path)
  and enabled;
* ``incremental``: cold vs warm-repeat vs 5%-perturbed timeline
  learning through the per-suffix cache, with hit/miss counters and
  the byte-identity check;
* ``http``: the pre-fork network server under the open/closed-loop
  load generator, and the graceful-drain exit code;
* ``shadow``: dual-annotation overhead of shadow deployment and the
  per-suffix disagreement ledger checked exact;
* ``obs_window``: windowed-telemetry cost on the serving hot path.

With no ``--section`` every section is measured.  ``--check`` evaluates
:data:`repro.bench.FLOORS`, printing one line per floor and exiting
non-zero if any fails: after ``--section`` runs it applies the live
bounds to the sections just measured (``--section serve --rounds 1
--output live.json --check`` is one CI round); alone it measures
nothing and applies the committed bounds to ``--output``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import SECTIONS, check_floors, render_report, \
    write_sections


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the learner benchmark suite and write "
                    "BENCH_learner.json")
    parser.add_argument("--output", default="BENCH_learner.json",
                        metavar="FILE", help="report destination")
    parser.add_argument("--rounds", type=int, default=None,
                        help="best-of rounds per timing (default: each "
                             "section's own)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel workers for the fan-out benchmarks "
                             "(default: one per CPU)")
    parser.add_argument("--section", action="append", choices=SECTIONS,
                        metavar="NAME",
                        help="refresh only this section (repeatable; "
                             "one of %s)" % ", ".join(SECTIONS))
    parser.add_argument("--check", action="store_true",
                        help="evaluate the acceptance floors; exit "
                             "non-zero if any fails")
    args = parser.parse_args(argv)
    if args.check and not args.section:
        try:
            with open(args.output, encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError) as exc:
            print("cannot read %s: %s" % (args.output, exc),
                  file=sys.stderr)
            return 1
    else:
        report = write_sections(args.output, args.section,
                                rounds=args.rounds, jobs=args.jobs)
        print(render_report(report))
        print("# report written to %s" % args.output)
        if not args.check:
            return 0
    results = check_floors(report, live=args.section)
    for _, line in results:
        print(line)
    failed = sum(1 for ok, _ in results if not ok)
    print("# %d floor(s) checked, %d failed" % (len(results), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
