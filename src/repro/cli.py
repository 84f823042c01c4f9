"""Command-line driver: ``repro-hoiho <verb> [options]``.

The verbs follow the paper's workflow:

* experiments regenerate its tables and figures (``figure5``,
  ``figure6``, ``table1``, ``table2``, ``section5``, ``section7``,
  ``sensitivity``, ``appendix-a``, ``ablation``, or ``all``), and
  ``run`` executes the core pipeline end to end;
* ``learn`` and ``report`` learn conventions from ``hostname asn``
  lines;
* ``annotate`` (alias ``apply``), ``serve``, ``serve-http`` and
  ``loadgen`` apply learned conventions through :mod:`repro.serve`;
* ``serve-stats``, ``shadow-report``, ``watch``, ``slo-report``,
  ``trace``, ``cache`` and ``bench`` inspect what the others recorded.

Each verb is one row of :data:`_VERBS` and accepts only the flags it
reads; ``repro-hoiho <verb> --help`` lists them.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, \
    Optional, Tuple, Union

from repro.serve.memo import DEFAULT_MEMO_SIZE
from repro.store import KINDS

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.select import HoihoResult
    from repro.core.types import TrainingItem
    from repro.eval.context import ExperimentContext
    from repro.store import ArtifactStore

# Building the parser imports only the two modules above.  Every
# handler imports what it runs, so a verb loads its own code alone:
# ``serve-http`` never imports the learner, the pipeline or an
# experiment.

#: The experiment verbs and their one-line help: the first line of the
#: verb's module in :mod:`repro.eval` (``appendix-a`` is
#: ``appendix_a``), imported when the verb runs.
_EXPERIMENTS: Dict[str, str] = {
    "ablation": "Ablations: what each learning phase and each bdrmapIT "
                "heuristic buys.",
    "appendix-a": "Appendix A: merging regexes vs building regex sets.",
    "figure5": "Figure 5: classification of naming conventions across "
               "training sets.",
    "figure6": "Figure 6: evaluation of usable conventions on their "
               "training data.",
    "section5": "Section 5 headline numbers: using conventions in "
                "bdrmapIT.",
    "section7": "Section 7: future directions, quantified.",
    "sensitivity": "Section-6 limitations, quantified: sensitivity to "
                   "stale hostnames.",
    "table1": "Table 1: taxonomy of how and where operators embed ASNs.",
    "table2": "Table 2: validation of the modified bdrmapIT's decisions.",
}


def _experiment(name: str) -> ModuleType:
    """The :mod:`repro.eval` module of experiment verb ``name``."""
    return importlib.import_module("repro.eval." + name.replace("-", "_"))


def _non_negative_int(text: str) -> int:
    """argparse type for counts where 0 means "off" (``--memo-size``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r"
                                         % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _bench_section(name: str) -> str:
    """argparse type for ``bench --section``: a row of
    :data:`repro.bench.SECTIONS` (imported only when the flag is
    given)."""
    from repro.bench import SECTIONS
    if name not in SECTIONS:
        raise argparse.ArgumentTypeError("%r is not one of %s"
                                         % (name, ", ".join(SECTIONS)))
    return name


def _resolve_policies(args: argparse.Namespace) -> None:
    """Validate ``--jobs``/``--retries``/``--retry-backoff`` once, up
    front, for the verbs that take them, and attach the resulting
    :class:`ParallelConfig` and :class:`RetryPolicy` (or ``None``) to
    ``args``.

    Raises ``ValueError`` on bad values (``--jobs -1``,
    ``--retries -1``); :func:`main` turns that into exit code 2 instead
    of a traceback."""
    if "jobs" in args:
        from repro.core.parallel import ParallelConfig
        args.parallel = ParallelConfig.from_jobs(args.jobs)
    if "retries" in args:
        from repro.core.resilience import RetryPolicy
        args.retry = RetryPolicy.from_flags(args.retries,
                                            backoff=args.retry_backoff)


def _store_from_args(args: argparse.Namespace) -> Optional[ArtifactStore]:
    """The artifact store the flags select, or ``None`` when caching
    is off (no ``--cache-dir``/``REPRO_CACHE_DIR``, or ``--no-cache``)."""
    if args.no_cache or not args.cache_dir:
        return None
    from repro.store import ArtifactStore
    return ArtifactStore(args.cache_dir)


def _history_path(args: argparse.Namespace) -> Optional[str]:
    """``--history``, else the serving history in the artifact store
    (``<cache-dir>/history/serve-http.jsonl``) when one is selected, so
    successive server lifetimes accumulate into one comparable
    history."""
    if args.history is None and args.cache_dir and not args.no_cache:
        return os.path.join(args.cache_dir, "history", "serve-http.jsonl")
    return args.history


def _read_training(path: str) -> List[TrainingItem]:
    from repro.core.types import TrainingItem

    items: List[TrainingItem] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) < 2:
                print("skipping malformed line: %r" % raw,
                      file=sys.stderr)
                continue
            items.append(TrainingItem(hostname=fields[0],
                                      train_asn=int(fields[1])))
    return items


def _run_experiment(name: str, context: ExperimentContext) -> str:
    module = _experiment(name)
    result = module.run(context)
    return module.render(result)


def _learn_items(items: List[TrainingItem],
                 args: argparse.Namespace) -> HoihoResult:
    """Learn conventions for ``items``, via the artifact store if on.

    The store key is the full training data plus the learner config,
    so any change to either re-learns; worker count is deliberately
    not keyed (parallel results are bit-identical to serial).
    """
    from repro.core.hoiho import Hoiho, HoihoConfig
    from repro.store import KIND_HOIHO

    store = _store_from_args(args)
    payload = {"kind": "learn-cli",
               "items": [(it.hostname, it.train_asn) for it in items],
               "hoiho_config": HoihoConfig()}
    if store is not None:
        cached = store.get(KIND_HOIHO, payload)
        if cached is not None:
            return cached
    result = Hoiho(parallel=args.parallel, retry=args.retry,
                   store=store).run(items)
    if store is not None:
        store.put(KIND_HOIHO, payload, result)
    return result


def _cmd_learn(args: argparse.Namespace) -> int:
    from repro.core.io import conventions_to_json

    if args.hostnames is None:
        print("learn requires --hostnames FILE", file=sys.stderr)
        return 2
    items = _read_training(args.hostnames)
    result = _learn_items(items, args)
    for suffix in sorted(result.conventions):
        convention = result.conventions[suffix]
        print("%s [%s] atp=%d ppv=%.2f" % (suffix,
                                           convention.nc_class.value,
                                           convention.score.atp,
                                           convention.score.ppv))
        for pattern in convention.patterns():
            print("    %s" % pattern)
    print("# %d suffixes examined, %d conventions learned"
          % (result.suffixes_examined, len(result.conventions)))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            handle.write(conventions_to_json(result))
        print("# conventions written to %s" % args.save)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import render_result
    from repro.core.types import group_by_suffix

    if args.hostnames is None:
        print("report requires --hostnames FILE", file=sys.stderr)
        return 2
    items = _read_training(args.hostnames)
    result = _learn_items(items, args)
    print(render_result(result, group_by_suffix(items)))
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    """Bulk annotation through :mod:`repro.serve` (and the ``apply``
    alias): streaming input, chunked ``--jobs`` fan-out, TSV/JSONL
    sinks.  Memory stays bounded by the chunk window however large the
    input is."""
    from repro.serve.engine import BulkAnnotator, Checkpoint
    from repro.serve.service import AnnotationService, iter_hostnames

    if args.conventions is None or args.hostnames is None:
        print("%s requires --conventions FILE and --hostnames FILE "
              "('-' = stdin)" % args.command, file=sys.stderr)
        return 2
    if args.checkpoint and args.out == "-":
        print("--checkpoint requires --out FILE (stdout cannot be "
              "resumed)", file=sys.stderr)
        return 2
    service = AnnotationService.from_json_file(args.conventions,
                                               memo_size=args.memo_size)
    service.warm()
    annotator = BulkAnnotator(service,
                              parallel=args.parallel,
                              chunk_size=args.chunk_size,
                              retry=args.retry)
    checkpoint = Checkpoint(args.checkpoint) if args.checkpoint else None
    source = sys.stdin if args.hostnames == "-" \
        else open(args.hostnames, encoding="utf-8")
    resuming = checkpoint is not None and checkpoint.path.exists()
    sink = sys.stdout if args.out == "-" \
        else _open_sink(args.out, resuming=resuming)
    try:
        summary = annotator.annotate_to(iter_hostnames(source), sink,
                                        fmt=args.format,
                                        checkpoint=checkpoint)
    finally:
        if source is not sys.stdin:
            source.close()
        if sink is not sys.stdout:
            sink.close()
    tail = ", %d dead-lettered" % summary["errors"] \
        if summary["errors"] else ""
    print("# %d hostname(s): %d annotated, %d unannotated%s"
          % (summary["requests"], summary["annotated"],
             summary["misses"], tail), file=sys.stderr)
    return 0


def _open_sink(path: str, resuming: bool):
    """Open the annotate output file: truncate on a fresh run, but keep
    existing bytes when a checkpoint may resume into them ('r+' so the
    engine can truncate back to the last durable line itself)."""
    if resuming and os.path.exists(path):
        return open(path, "r+", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Line-oriented serving loop: hostnames in on stdin, annotations
    out on stdout (one TSV line per request, flushed), metrics summary
    on stderr at EOF.  SIGTERM/SIGINT also flush ``--metrics-out``
    before exiting -- an interrupted session keeps its numbers."""
    import signal as _signal

    from repro.serve.http import write_snapshot
    from repro.serve.service import AnnotationService, iter_hostnames

    if args.conventions is None:
        print("serve requires --conventions FILE", file=sys.stderr)
        return 2
    service = AnnotationService.from_json_file(args.conventions,
                                               memo_size=args.memo_size)
    warmed = service.warm()
    if args.shadow:
        from repro.serve.shadow import ShadowService, render_shadow_report
        service = ShadowService(service)
        loaded = service.load_candidate_file(args.shadow)
        print("# shadowing %d candidate convention(s) from %s"
              % (loaded, args.shadow), file=sys.stderr)
    print("# serving %d convention(s) from %s"
          % (warmed, args.conventions), file=sys.stderr)

    previous = [_signal.signal(_signal.SIGTERM, _stop_serving),
                _signal.signal(_signal.SIGINT, _stop_serving)]
    try:
        for hostname in iter_hostnames(sys.stdin):
            asn = service.annotate_one(hostname)
            print("%s\t%s" % (hostname, asn if asn is not None else "-"),
                  flush=True)
    except _StopServing:
        pass
    finally:
        _signal.signal(_signal.SIGTERM, previous[0])
        _signal.signal(_signal.SIGINT, previous[1])
    if args.metrics_out:
        write_snapshot(args.metrics_out, service.stats())
    if args.shadow:
        print(render_shadow_report(service.report()), file=sys.stderr)
    print(service.metrics.render(), file=sys.stderr)
    return 0


class _StopServing(BaseException):
    """SIGTERM/SIGINT during ``serve``.  A ``BaseException``, so no
    ``except Exception`` on the request path swallows it."""


def _stop_serving(signum: int, frame: object) -> None:
    # PEP 475 auto-retries the blocked stdin read after this handler
    # returns, so a "stop" flag would never be seen; leave the loop by
    # raising instead.
    raise _StopServing()


def _cmd_serve_http(args: argparse.Namespace) -> int:
    """The network annotation server (see :mod:`repro.serve.http`)."""
    from repro.serve.http import HttpConfig, serve_http
    from repro.serve.service import AnnotationService

    if args.conventions is None:
        print("serve-http requires --conventions FILE", file=sys.stderr)
        return 2
    config = HttpConfig(host=args.host, port=args.port,
                        workers=args.workers,
                        drain_grace=args.drain_grace,
                        conventions=args.conventions,
                        shadow=args.shadow,
                        promote_threshold=args.promote_threshold,
                        metrics_out=args.metrics_out,
                        access_log=args.access_log,
                        trace_sample=args.trace_sample,
                        trace_out=args.trace_out,
                        history=_history_path(args),
                        history_interval=args.history_interval)
    if args.max_body is not None:
        config.max_body = args.max_body
    if args.max_inflight is not None:
        config.max_inflight = args.max_inflight
    try:
        config.validate()
    except ValueError as exc:
        print("repro-hoiho serve-http: %s" % exc, file=sys.stderr)
        return 2
    service = AnnotationService.from_json_file(args.conventions,
                                               memo_size=args.memo_size)
    warmed = service.warm()
    if args.shadow:
        # Wrap and load before serve_http forks so every worker
        # inherits the warmed candidate alongside the primary.
        from repro.serve.shadow import ShadowService
        shadow = ShadowService(service)
        loaded = shadow.load_candidate_file(args.shadow)
        service = shadow
        print("# shadowing %d candidate convention(s) from %s"
              % (loaded, args.shadow), file=sys.stderr)

    def _ready(port: int) -> None:
        print("# serving %d convention(s) on http://%s:%d (%d worker%s)"
              % (warmed, args.host, port, args.workers,
                 "" if args.workers == 1 else "s"),
              file=sys.stderr, flush=True)

    return serve_http(service, config, ready=_ready)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running ``serve-http`` instance and report throughput
    and latency percentiles.  The hostname stream is ``--hostnames``
    (bare hostnames) or, by default, the bench's deterministic Zipf
    stream -- the same workload the in-process serve bench measures,
    so the numbers are comparable."""
    import json as _json

    from repro.serve.loadgen import LoadGenConfig, run_loadgen
    from repro.serve.service import iter_hostnames

    if args.hostnames:
        source = sys.stdin if args.hostnames == "-" \
            else open(args.hostnames, encoding="utf-8")
        try:
            hostnames = list(iter_hostnames(source))
        finally:
            if source is not sys.stdin:
                source.close()
        if not hostnames:
            print("loadgen: no hostnames in %s" % args.hostnames,
                  file=sys.stderr)
            return 2
    else:
        from repro.bench import zipf_hostnames
        hostnames = zipf_hostnames()
    config = LoadGenConfig(host=args.host, port=args.port,
                           mode=args.mode, requests=args.requests,
                           concurrency=args.concurrency, rate=args.rate,
                           batch_size=args.batch_size)
    try:
        config.validate()
    except ValueError as exc:
        print("repro-hoiho loadgen: %s" % exc, file=sys.stderr)
        return 2
    result = run_loadgen(config, hostnames)
    print(_json.dumps(result, indent=2, sort_keys=True))
    if args.loadgen_out:
        with open(args.loadgen_out, "w", encoding="utf-8") as handle:
            _json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    """Render a saved metrics snapshot (``--metrics FILE``, repeatable
    -- several files merge additively via ``merge_snapshot``, e.g. the
    per-worker flushes of a pre-fork server) or the ``serve`` section
    of the bench report (``--output``, default ``BENCH_learner.json``).
    A ``--metrics`` snapshot additionally renders as Prometheus text
    exposition (``--format prom``) or raw JSON (``--json``)."""
    import json as _json

    from repro.obs.metrics import MetricsRegistry, render_snapshot
    from repro.obs.prom import to_prometheus

    if args.metrics:
        snapshots = []
        for path in args.metrics:
            try:
                with open(path, encoding="utf-8") as handle:
                    snapshots.append(_json.load(handle))
            except (OSError, ValueError) as exc:
                print("cannot read metrics snapshot %s: %s"
                      % (path, exc), file=sys.stderr)
                return 2
        if len(snapshots) == 1:
            # One file renders verbatim, extras (memo, fused_plans)
            # included; merging would drop non-instrument keys.
            snapshot = snapshots[0]
        else:
            merged = MetricsRegistry()
            try:
                for payload in snapshots:
                    merged.merge_snapshot(payload)
            except ValueError as exc:
                print("cannot merge metrics snapshots: %s" % exc,
                      file=sys.stderr)
                return 2
            snapshot = merged.snapshot()
        if args.json:
            print(_json.dumps(snapshot, indent=2, sort_keys=True))
        elif args.format == "prom":
            print(to_prometheus(snapshot), end="")
        else:
            print(render_snapshot(snapshot))
        return 0
    if args.format == "prom":
        print("serve-stats --format prom requires --metrics FILE "
              "(the bench serve section is not a metrics snapshot)",
              file=sys.stderr)
        return 2
    from repro.bench import render_serve_section
    try:
        with open(args.output, encoding="utf-8") as handle:
            report = _json.load(handle)
    except (OSError, ValueError) as exc:
        print("cannot read bench report %s: %s" % (args.output, exc),
              file=sys.stderr)
        return 2
    section = report.get("serve")
    if not section:
        print("no serve section in %s (run `make bench SECTIONS=serve`)"
              % args.output, file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(section, indent=2, sort_keys=True))
        return 0
    print(render_serve_section(section))
    return 0


def _cmd_shadow_report(args: argparse.Namespace) -> int:
    """The shadow disagreement ledger, three ways: live from a running
    ``serve-http`` (``GET /admin/shadow/report`` on ``--host``/
    ``--port``), offline by merging saved ``--metrics`` snapshots
    (e.g. a pre-fork server's per-worker flushes, or the
    ``--metrics-out`` file it writes at shutdown), or across time from
    the persisted ``--history`` file -- one report per entry, so
    successive candidates compare across server lifetimes."""
    import json as _json

    from repro.serve.shadow import merge_shadow_reports, \
        render_shadow_report

    if args.history:
        return _render_shadow_history(args)
    if args.metrics:
        snapshots = []
        for path in args.metrics:
            try:
                with open(path, encoding="utf-8") as handle:
                    snapshots.append(_json.load(handle))
            except (OSError, ValueError) as exc:
                print("cannot read metrics snapshot %s: %s"
                      % (path, exc), file=sys.stderr)
                return 2
        report = merge_shadow_reports(snapshots)
    else:
        import http.client
        try:
            conn = http.client.HTTPConnection(args.host, args.port,
                                              timeout=10.0)
            try:
                conn.request("GET", "/admin/shadow/report")
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
        except OSError as exc:
            print("cannot reach http://%s:%d: %s (is serve-http "
                  "running? or pass --metrics FILE)"
                  % (args.host, args.port, exc), file=sys.stderr)
            return 2
        if response.status != 200:
            print("GET /admin/shadow/report returned %d: %s"
                  % (response.status, body.decode("utf-8", "replace")),
                  file=sys.stderr)
            return 1
        report = _json.loads(body.decode("utf-8"))
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(render_shadow_report(report, top=args.top))
    return 0


def _render_shadow_history(args: argparse.Namespace) -> int:
    """``shadow-report --history``: one ledger row per history entry."""
    import json as _json
    from datetime import datetime, timezone

    from repro.obs.timeseries import HistoryStore
    from repro.serve.shadow import shadow_report_from_snapshot

    entries = HistoryStore(args.history).entries()
    if not entries:
        print("no history entries in %s" % args.history, file=sys.stderr)
        return 1
    reports = [dict(ts=entry.get("ts"),
                    **shadow_report_from_snapshot(
                        entry.get("snapshot") or {}))
               for entry in entries]
    if args.json:
        print(_json.dumps(reports, indent=2, sort_keys=True))
        return 0
    lines = ["shadow history: %d entr%s from %s"
             % (len(reports), "y" if len(reports) == 1 else "ies",
                args.history),
             "  %-20s %-8s %-10s %-9s %-9s %s"
             % ("ts", "active", "requests", "disagree", "fraction",
                "candidate")]
    for report in reports:
        ts = report.get("ts")
        stamp = (datetime.fromtimestamp(ts, tz=timezone.utc)
                 .strftime("%Y-%m-%dT%H:%M:%SZ") if ts else "-")
        lines.append("  %-20s %-8s %-10d %-9d %-9s %s"
                     % (stamp,
                        "yes" if report.get("active") else "no",
                        report.get("requests", 0),
                        report.get("disagreements", 0),
                        "%.2f%%" % (100.0
                                    * report.get("disagreement_fraction",
                                                 0.0)),
                        report.get("candidate_suffixes")
                        if report.get("candidate_suffixes") is not None
                        else "-"))
    print("\n".join(lines))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """A refreshing terminal dashboard over ``GET /admin/status``.

    Clears the screen between frames on a TTY; plain sequential frames
    otherwise (so piping to a file keeps every sample)."""
    import http.client
    import json as _json

    frame = 0
    while True:
        try:
            conn = http.client.HTTPConnection(args.host, args.port,
                                              timeout=5.0)
            try:
                conn.request("GET", "/admin/status")
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
        except OSError as exc:
            print("cannot reach http://%s:%d: %s (is serve-http "
                  "running?)" % (args.host, args.port, exc),
                  file=sys.stderr)
            return 1
        if response.status != 200:
            print("GET /admin/status returned %d" % response.status,
                  file=sys.stderr)
            return 1
        status = _json.loads(body.decode("utf-8"))
        frame += 1
        if sys.stdout.isatty():
            sys.stdout.write("\x1b[2J\x1b[H")
        print(_render_watch_frame(status, args.host, args.port, frame,
                                  args.interval))
        sys.stdout.flush()
        if args.iterations and frame >= args.iterations:
            return 0
        time.sleep(max(args.interval, 0.1))


def _render_watch_frame(status: dict, host: str, port: int,
                        frame: int, interval: float) -> str:
    window = status.get("window") or {}
    latency = window.get("latency") or {}
    ages = status.get("snapshot_age_seconds") or {}
    lines = [
        "repro-hoiho watch -- http://%s:%d  (frame %d, %.1fs refresh)"
        % (host, port, frame, interval),
        "  state %-9s uptime %-9s workers %-3d answering-worker %-3s "
        "inflight %d"
        % (status.get("status", "?"),
           "%.0fs" % status.get("uptime_seconds", 0.0),
           status.get("workers", 1),
           status.get("worker", "?"),
           status.get("inflight", 0)),
        "  window %.0fs of %.0fs x %d: %d requests  %.1f req/s  "
        "errors %d (%.2f%%)"
        % (window.get("covered_seconds", 0.0),
           window.get("width_seconds", 0.0),
           window.get("count", 0),
           window.get("requests", 0),
           window.get("requests_per_second", 0.0),
           window.get("errors", 0),
           100.0 * window.get("error_rate", 0.0)),
    ]
    if latency:
        lines.append("  latency " + "  ".join(
            "%s %.3fms" % (key, latency[key] * 1e3)
            for key in sorted(latency)))
    else:
        lines.append("  latency (no samples in window)")
    if ages:
        lines.append("  snapshot age " + "  ".join(
            "w%s %.1fs" % (worker, ages[worker])
            for worker in sorted(ages, key=int)))
    return "\n".join(lines)


def _cmd_slo_report(args: argparse.Namespace) -> int:
    """Evaluate a declarative SLO target against a persisted history;
    exit 0 when every check holds, 1 on breach (CI-gateable)."""
    import json as _json

    from repro.obs.slo import SloTarget, evaluate_history, \
        render_slo_report
    from repro.obs.timeseries import HistoryStore

    history = _history_path(args)
    if not history:
        print("slo-report requires --history FILE (or a --cache-dir "
              "with a serving history)", file=sys.stderr)
        return 2
    if not args.slo:
        print("slo-report requires --slo FILE (the target JSON)",
              file=sys.stderr)
        return 2
    try:
        target = SloTarget.from_file(args.slo)
    except (OSError, ValueError, TypeError) as exc:
        print("cannot load SLO target %s: %s" % (args.slo, exc),
              file=sys.stderr)
        return 2
    entries = HistoryStore(history).entries()
    if not entries:
        print("no history entries in %s" % history, file=sys.stderr)
        return 2
    report = evaluate_history(entries, target)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_slo_report(report))
    return 0 if report["ok"] else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Measure the ``--section`` rows of :data:`repro.bench.SECTIONS`
    (every one by default) into ``--output``.  ``--check`` evaluates
    :data:`repro.bench.FLOORS` and exits 1 if any fails: after
    ``--section`` runs it applies the live bounds to the sections just
    measured (one CI round); alone it measures nothing and applies the
    committed bounds to ``--output``."""
    import json as _json

    from repro.bench import check_floors, render_report, write_sections

    if args.check and not args.section:
        try:
            with open(args.output, encoding="utf-8") as handle:
                report = _json.load(handle)
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


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.store import ArtifactStore

    if not args.cache_dir:
        print("cache requires --cache-dir DIR (or REPRO_CACHE_DIR)",
              file=sys.stderr)
        return 2
    store = ArtifactStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear(kind=args.namespace)
        scope = " (namespace %s)" % args.namespace if args.namespace else ""
        print("cleared %d cached artifact(s) from %s%s"
              % (removed, store.root, scope))
        return 0
    info = store.info()
    if args.json:
        import json as _json
        print(_json.dumps(info, indent=2, sort_keys=True))
        return 0
    print("artifact store: %s (schema v%s)" % (info["root"], info["schema"]))
    kinds = info["kinds"]
    stale = info["stale"]
    if not info["entries"] and not stale:
        print("  empty")
        return 0
    # Human rendering shows only populated namespaces; --json reports
    # every registered one (including zeros).
    for kind in sorted(kinds):
        entry = kinds[kind]
        if not entry["entries"]:
            continue
        print("  %-10s %4d entr%s  %10d bytes"
              % (kind, entry["entries"],
                 "y" if entry["entries"] == 1 else "ies", entry["bytes"]))
    if stale:
        print("  stale      %4d entr%s of an older schema (cache clear "
              "removes them)" % (stale, "y" if stale == 1 else "ies"))
    print("  total      %4d entries  %10d bytes"
          % (info["entries"], info["bytes"]))
    return 0


def _context(args: argparse.Namespace) -> ExperimentContext:
    """The experiment context the world, store, jobs/retry and trace
    flags select."""
    from repro.eval.context import ExperimentContext, Scale
    from repro.obs.trace import NULL_TRACER, Tracer

    return ExperimentContext(
        seed=args.seed, scale=Scale(args.scale), parallel=args.parallel,
        store=_store_from_args(args), retry=args.retry,
        tracer=Tracer(path=args.trace_out) if args.trace_out
        else NULL_TRACER)


def _finish_trace(context: ExperimentContext, args: argparse.Namespace,
                  wall_seconds: float) -> None:
    """Close the trace sink and write the run manifest next to it.

    The tracer must be closed *before* the manifest is built so any
    still-open spans contribute their final durations to the export.
    """
    tracer = context.tracer
    if not tracer.enabled:
        return
    from repro.obs.manifest import write_manifest

    tracer.close()
    manifest_path = args.manifest_out or \
        os.path.splitext(args.trace_out)[0] + ".manifest.json"
    write_manifest(manifest_path,
                   context.manifest(wall_seconds,
                                    trace_path=args.trace_out))
    print("# trace written to %s" % args.trace_out, file=sys.stderr)
    print("# manifest written to %s" % manifest_path, file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    """The whole core pipeline, end to end: generate (or reload) the
    world, build every training-set snapshot, learn conventions for all
    of them.  The canonical traced entry point -- each stage is a
    top-level span, so the manifest's per-stage durations account for
    the run's full wall time."""
    context = _context(args)
    started = time.perf_counter()
    timeline = context.timeline
    learned = context.learn_timeline()
    wall = time.perf_counter() - started
    conventions = sum(len(result.conventions)
                      for result in learned.values())
    items = sum(len(training_set.items) for training_set in timeline)
    print("run complete: %d training set(s), %d item(s), "
          "%d convention(s) learned in %.2fs"
          % (len(timeline), items, conventions, wall))
    _finish_trace(context, args, wall)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    """One experiment, or ``all`` of them in name order, on one
    context."""
    context = _context(args)
    names = sorted(_EXPERIMENTS) if args.command == "all" \
        else [args.command]
    started = time.perf_counter()
    for index, name in enumerate(names):
        if index:
            print("\n" + "=" * 70 + "\n")
        print(_run_experiment(name, context))
    _finish_trace(context, args, time.perf_counter() - started)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a recorded trace file (``trace summary FILE``)."""
    from repro.obs.summary import render_summary
    from repro.obs.trace import load_trace

    try:
        records = load_trace(args.file)
    except (OSError, ValueError) as exc:
        print("cannot read trace %s: %s" % (args.file, exc),
              file=sys.stderr)
        return 2
    print(render_summary(records, top=args.top))
    return 0


#: Every flag once, as ``add_argument`` keyword arguments.  A verb's
#: row may override some of them (its ``--format`` choices, or a help
#: text that says what that verb does with the flag).
_FLAGS: Dict[str, Dict[str, object]] = {
    "--seed": dict(type=int, default=2020,
                   help="master seed for the synthetic world"),
    "--scale": dict(choices=("tiny", "small", "full"), default="small",
                    help="world size (tiny/small/full)"),
    "--cache-dir": dict(metavar="DIR",
                        help="persistent artifact store for worlds, "
                             "timelines, and learned conventions "
                             "(default: $REPRO_CACHE_DIR, else off)"),
    "--no-cache": dict(action="store_true",
                       help="ignore the artifact store for this run"),
    "--jobs": dict(type=int, default=1, metavar="N",
                   help="worker processes (1 = serial, 0 = one per CPU)"),
    "--retries": dict(type=int, default=0, metavar="N",
                      help="extra attempts per parallel work item "
                           "(0 = fail fast; >0 arms worker-loss "
                           "recovery and transient-fault retry)"),
    "--retry-backoff": dict(type=float, default=0.05, metavar="SECONDS",
                            help="base delay before the first retry "
                                 "(doubles per attempt, deterministic)"),
    "--trace-out": dict(metavar="FILE",
                        help="record a span trace here (JSONL) and write "
                             "a run manifest next to it"),
    "--manifest-out": dict(metavar="FILE",
                           help="override the manifest path (default: "
                                "<trace-out stem>.manifest.json)"),
    "--hostnames": dict(metavar="FILE",
                        help="bare hostnames, one per line ('-' reads "
                             "stdin)"),
    "--save": dict(metavar="FILE", help="write conventions JSON here"),
    "--conventions": dict(metavar="FILE",
                          help="conventions JSON from a prior learn "
                               "--save"),
    "--checkpoint": dict(metavar="FILE",
                         help="progress sidecar; an interrupted run "
                              "rerun with the same flags resumes where "
                              "it left off"),
    "--out": dict(metavar="FILE", default="-",
                  help="output destination (default '-' = stdout)"),
    "--format": dict(choices=("jsonl", "tsv"), default="tsv",
                     help="output format (default tsv)"),
    "--chunk-size": dict(type=int, default=None, metavar="N",
                         help="hostnames per dispatched chunk (default: "
                              "adaptive ramp, 2048 fixed for the serial "
                              "path)"),
    "--memo-size": dict(type=_non_negative_int, default=DEFAULT_MEMO_SIZE,
                        metavar="N",
                        help="hostname-memo capacity (0 disables "
                             "memoization; default %d)" % DEFAULT_MEMO_SIZE),
    "--shadow": dict(metavar="FILE",
                     help="candidate conventions JSON to annotate "
                          "side-by-side (shadow deployment; results "
                          "never returned)"),
    "--metrics-out": dict(metavar="FILE",
                          help="write a metrics snapshot JSON here on "
                               "exit"),
    "--promote-threshold": dict(type=float, default=None,
                                metavar="FRACTION",
                                help="refuse /admin/shadow/promote while "
                                     "the merged disagreement fraction "
                                     "exceeds this (default: no gate)"),
    "--host": dict(default="127.0.0.1",
                   help="server address (default 127.0.0.1)"),
    "--port": dict(type=int, default=8080, metavar="N",
                   help="server TCP port (default 8080)"),
    "--workers": dict(type=int, default=1, metavar="N",
                      help="pre-fork worker processes (1 = single "
                           "process; default 1)"),
    "--max-body": dict(type=int, default=None, metavar="BYTES",
                       help="reject request bodies larger than this "
                            "with 413 (default 8 MiB)"),
    "--max-inflight": dict(type=int, default=None, metavar="N",
                           help="per-worker bound on concurrent "
                                "annotation requests; excess gets 429 "
                                "(default 64)"),
    "--drain-grace": dict(type=float, default=0.0, metavar="SECONDS",
                          help="keep accepting (readyz 503) this long "
                               "after SIGTERM so load balancers observe "
                               "the drain (default 0)"),
    "--access-log": dict(metavar="PATH",
                         help="structured JSON access log, one line per "
                              "request ('-' = stderr; default off)"),
    "--trace-sample": dict(type=int, default=0, metavar="N",
                           help="trace 1-in-N requests as spans to "
                                "--trace-out (0 = off)"),
    "--history": dict(metavar="FILE",
                      help="read this metrics history (JSONL) instead "
                           "of a live server"),
    "--history-interval": dict(type=float, default=10.0,
                               metavar="SECONDS",
                               help="seconds between history appends "
                                    "(default 10)"),
    "--mode": dict(choices=("closed", "open"), default="closed",
                   help="closed loop (capacity) or open loop (fixed "
                        "offered rate)"),
    "--requests": dict(type=int, default=1000, metavar="N",
                       help="total requests to issue (default 1000)"),
    "--concurrency": dict(type=int, default=4, metavar="N",
                          help="client connections/threads (default 4)"),
    "--rate": dict(type=float, default=100.0, metavar="PER_SECOND",
                   help="open loop: offered request rate (default "
                        "100/s)"),
    "--batch-size": dict(type=int, default=1, metavar="N",
                         help="hostnames per request (1 = POST "
                              "/annotate, else /annotate/batch)"),
    "--loadgen-out": dict(metavar="FILE",
                          help="also write the report as JSON here"),
    "--metrics": dict(metavar="FILE", action="append",
                      help="a saved metrics snapshot (repeat to merge "
                           "several additively)"),
    "--output": dict(metavar="FILE", default="BENCH_learner.json",
                     help="the bench report JSON (default "
                          "BENCH_learner.json)"),
    "--section": dict(action="append", type=_bench_section,
                      metavar="NAME",
                      help="measure only this section (repeatable; a "
                           "row of repro.bench.SECTIONS)"),
    "--rounds": dict(type=int, default=None, metavar="N",
                     help="best-of rounds per timing (default: each "
                          "section's own)"),
    "--check": dict(action="store_true",
                    help="evaluate repro.bench.FLOORS; exit 1 if any "
                         "fails"),
    "--json": dict(action="store_true",
                   help="emit raw JSON instead of the human rendering"),
    "--top": dict(type=int, default=10, metavar="N",
                  help="rows to show (default 10)"),
    "--interval": dict(type=float, default=2.0, metavar="SECONDS",
                       help="refresh period (default 2)"),
    "--iterations": dict(type=int, default=0, metavar="N",
                         help="stop after N frames (0 = until "
                              "interrupted)"),
    "--slo": dict(metavar="FILE",
                  help="declarative SLO target JSON (see "
                       "docs/OBSERVABILITY.md)"),
    "--namespace": dict(choices=KINDS, metavar="KIND",
                        help="clear: restrict the sweep to one namespace "
                             "(%s)" % "/".join(KINDS)),
}

#: A row's flag: a name in :data:`_FLAGS`, or a name with overrides.
_Flag = Union[str, Tuple[str, Dict[str, object]]]

_WORLD = ("--seed", "--scale")
_STORE = ("--cache-dir", "--no-cache")
_JOBS = ("--jobs", "--retries", "--retry-backoff")
_TRACE = ("--trace-out", "--manifest-out")
_SERVING = ("--conventions", "--shadow", "--memo-size", "--metrics-out")
_ADDRESS = ("--host", "--port")
_ANNOTATE: Tuple[_Flag, ...] = (
    "--conventions", "--hostnames", "--checkpoint", "--out", "--format",
    "--chunk-size", "--memo-size") + _JOBS
_PIPELINE = _WORLD + _STORE + _JOBS + _TRACE
_TRAINING = ("--hostnames",
             dict(help="'hostname asn' lines ('#' comments allowed)"))


class _Verb(NamedTuple):
    """One ``repro-hoiho`` verb: its handler, a one-line help, and
    every flag it reads."""

    name: str
    handler: Callable[[argparse.Namespace], int]
    help: str
    flags: Tuple[_Flag, ...]


_VERBS: Tuple[_Verb, ...] = (
    _Verb("learn", _cmd_learn, "learn conventions from training data",
          (_TRAINING, "--save") + _STORE + _JOBS),
    _Verb("report", _cmd_report,
          "learn, then print per-suffix TP/FP/FN pages",
          (_TRAINING,) + _STORE + _JOBS),
    _Verb("annotate", _cmd_annotate,
          "extract ASNs from hostnames, streaming", _ANNOTATE),
    _Verb("apply", _cmd_annotate, "alias of annotate", _ANNOTATE),
    _Verb("serve", _cmd_serve,
          "annotate hostnames from stdin, one line per request",
          _SERVING),
    _Verb("serve-http", _cmd_serve_http, "the HTTP annotation server",
          _SERVING + ("--promote-threshold",) + _ADDRESS + (
              "--workers", "--max-body", "--max-inflight",
              "--drain-grace", "--access-log", "--trace-sample",
              ("--trace-out", dict(help="JSONL sink for --trace-sample "
                                        "request spans")),
              ("--history", dict(help="append timestamped merged "
                                      "metrics snapshots here (JSONL; "
                                      "default <cache-dir>/history/"
                                      "serve-http.jsonl)")),
              "--history-interval") + _STORE),
    _Verb("loadgen", _cmd_loadgen,
          "drive a running serve-http and report latency",
          (("--hostnames", dict(help="bare hostnames to send (default: "
                                     "the bench's Zipf stream)")),)
          + _ADDRESS + ("--mode", "--requests", "--concurrency", "--rate",
                        "--batch-size", "--loadgen-out")),
    _Verb("serve-stats", _cmd_serve_stats,
          "render a metrics snapshot or the bench serve section",
          ("--metrics",
           ("--format", dict(choices=("prom", "text"), default="text",
                             help="rendering of a --metrics snapshot "
                                  "(default text)")),
           "--json", "--output")),
    _Verb("shadow-report", _cmd_shadow_report,
          "the shadow disagreement ledger",
          ("--history", "--metrics") + _ADDRESS + ("--json", "--top")),
    _Verb("watch", _cmd_watch, "a live dashboard over /admin/status",
          _ADDRESS + ("--interval", "--iterations")),
    _Verb("slo-report", _cmd_slo_report,
          "check a serving history against an SLO target (exit 1 on "
          "breach)",
          (("--history", dict(help="the serving history (JSONL; default "
                                   "<cache-dir>/history/"
                                   "serve-http.jsonl)")),
           "--slo", "--json") + _STORE),
    _Verb("bench", _cmd_bench,
          "measure BENCH_learner.json and check its floors",
          (("--output", dict(help="the report to write, or to check "
                                  "with --check alone (default "
                                  "BENCH_learner.json)")),
           "--section", "--rounds", "--check",
           ("--jobs", dict(default=0,
                           help="worker processes for the fan-out "
                                "sections (0 = one per CPU, the "
                                "default, at most 4 where a section "
                                "caps it; 1 = serial)")))),
    _Verb("cache", _cmd_cache, "inspect or empty the artifact store",
          (("action", dict(nargs="?", choices=("info", "clear"),
                           default="info",
                           help="info (default) or clear")),
           "--cache-dir", "--namespace", "--json")),
    _Verb("trace", _cmd_trace, "render a recorded trace",
          (("action", dict(choices=("summary",), help="summary")),
           ("file", dict(help="the trace JSONL file")),
           ("--top", dict(help="slowest-suffix rows to show "
                               "(default 10)")))),
    _Verb("run", _cmd_run,
          "the core pipeline end to end (world, timeline, learning)",
          _PIPELINE),
    _Verb("all", _cmd_experiments, "every experiment", _PIPELINE),
) + tuple(_Verb(name, _cmd_experiments, help, _PIPELINE)
          for name, help in sorted(_EXPERIMENTS.items()))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hoiho",
        description="Reproduce 'Learning to Extract and Use ASNs in "
                    "Hostnames' (IMC 2020) on a synthetic Internet, or "
                    "run the learner on your own hostname data.")
    verbs = parser.add_subparsers(dest="command", required=True,
                                  metavar="VERB")
    for verb in _VERBS:
        sub = verbs.add_parser(verb.name, help=verb.help,
                               description=verb.help)
        sub.set_defaults(handler=verb.handler, parser=sub)
        for flag in verb.flags:
            name, overrides = (flag, {}) if isinstance(flag, str) else flag
            kwargs = dict(_FLAGS.get(name, {}), **overrides)
            if name == "--cache-dir":
                kwargs["default"] = os.environ.get("REPRO_CACHE_DIR")
            sub.add_argument(name, **kwargs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-hoiho`` console script: the verb's
    exit status, 2 for a usage error and 0 for ``--help``."""
    try:
        args, extras = _build_parser().parse_known_args(argv)
        if extras:  # the verb's own usage error, not the top level's
            args.parser.error("unrecognized arguments: " + " ".join(extras))
        _resolve_policies(args)
    except SystemExit as exc:  # argparse's usage errors and --help
        return exc.code
    except ValueError as exc:
        print("repro-hoiho: %s" % exc, file=sys.stderr)
        return 2
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
