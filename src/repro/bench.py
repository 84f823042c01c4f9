"""Fixed synthetic workloads, and the kernels behind the serving,
shadow, incremental and observability bounds.

The workload builders (:func:`serve_conventions`,
:func:`serve_hostnames`, :func:`zipf_hostnames`,
:func:`shadow_divergence_case`, :func:`incremental_training_sets`,
:func:`obs_world_items` and the one-suffix :func:`bench_dataset`) need
no world generation, so tests and ``repro-hoiho loadgen`` share them.
Each ``run_*_bench`` times one kernel and returns only the numbers a
test bounds: the serve and shadow bounds are smoke tests
(``tests/integration/test_serve_bounds.py``), the incremental and
observability bounds tier-1 tests (``tests/test_bench.py``).  The
benchmark of record, end-to-end time and the layer profile, is
``python3 -m benchmarks.e2e``.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro.core.hoiho import Hoiho
from repro.core.parallel import ParallelConfig, default_workers
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset, TrainingItem


def bench_dataset(n_annotated: int = 60, n_plain: int = 20,
                  suffix: str = "example.net") -> SuffixDataset:
    """One suffix of ASN-annotated plus plain hostnames."""
    asns = [1000 + 37 * i for i in range(n_annotated)]
    items = [TrainingItem("as%d-10ge-pop%d.%s" % (asn, i % 7, suffix), asn)
             for i, asn in enumerate(asns)]
    items += [TrainingItem("lo0.cr%d.pop%d.%s" % (i, i % 7, suffix), 1000)
              for i in range(n_plain)]
    return SuffixDataset(suffix, items)


def bench_regex_set(suffix: str = "example.net") -> List[Regex]:
    """A multi-regex convention over :func:`bench_dataset` hostnames."""
    return [
        Regex.raw(r"^as(\d+)-10ge-pop0\.%s$" % suffix.replace(".", r"\.")),
        Regex.raw(r"^as(\d+)-10ge-pop[12]\.%s$" % suffix.replace(".", r"\.")),
        Regex.raw(r"^as(\d+)-[a-z\d]+-[a-z\d]+\.%s$"
                  % suffix.replace(".", r"\.")),
    ]


def _best_of(func: Callable[[], object], rounds: int) -> float:
    """Minimum wall time of ``rounds`` calls (best-of timing)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bulk_workers() -> int:
    """Worker count for the kernels that fan out: ``min(4, cpu_count)``
    -- enough to demonstrate scaling without turning a kernel into a
    machine-sizing exercise."""
    return min(4, default_workers())


def serve_conventions(n_suffixes: int = 24) -> "HoihoResult":
    """A hand-built convention set over true registered domains.

    The suffixes must be registered domains under the embedded PSL
    (``svcNN-bench.org`` is: public suffix ``org`` + one label) so the
    old linear path (``HoihoResult.extract`` via the PSL) and the
    trie-dispatch path annotate identically -- the throughput
    comparison is apples to apples.
    """
    from repro.core.evaluate import NCScore
    from repro.core.select import HoihoResult, LearnedConvention, NCClass

    result = HoihoResult(suffixes_examined=n_suffixes)
    for index in range(n_suffixes):
        suffix = "svc%02d-bench.org" % index
        escaped = suffix.replace(".", r"\.")
        regexes = (
            Regex.raw(r"^as(\d+)-et\d+\.pop\d+\.%s$" % escaped),
            Regex.raw(r"^(\d+)\.cr\d+\.%s$" % escaped),
        )
        score = NCScore(tp=6, matches=6)
        score.distinct_asns = {1000 + index, 2000 + index, 3000 + index}
        result.conventions[suffix] = LearnedConvention(
            suffix=suffix, regexes=regexes, score=score,
            nc_class=NCClass.GOOD)
    return result


def serve_hostnames(n: int = 20000, n_suffixes: int = 24) -> List[str]:
    """The bulk-annotation workload over :func:`serve_conventions`.

    A realistic mix: mostly convention hits, plus known-suffix misses,
    unknown suffixes, and un-normalised forms (trailing dots,
    uppercase).
    """
    hostnames: List[str] = []
    for i in range(n):
        suffix = "svc%02d-bench.org" % (i % n_suffixes)
        bucket = i % 10
        if bucket < 6:          # primary convention hit
            hostnames.append("as%d-et%d.pop%d.%s"
                             % (1000 + 7 * i, i % 4, i % 5, suffix))
        elif bucket < 7:        # secondary regex hit
            hostnames.append("%d.cr%d.%s" % (2000 + 3 * i, i % 9, suffix))
        elif bucket < 8:        # known suffix, no pattern match
            hostnames.append("lo0.cr%d.%s" % (i % 9, suffix))
        elif bucket < 9:        # unknown suffix
            hostnames.append("as%d.pop%d.unknown%02d.net"
                             % (1000 + i, i % 5, i % 16))
        else:                   # needs normalisation first
            hostnames.append("AS%d-ET%d.POP%d.%s."
                             % (1000 + 7 * i, i % 4, i % 5,
                                suffix.upper()))
    return hostnames


def zipf_hostnames(n: int = 20000, universe: int = 3000,
                   exponent: float = 1.1,
                   seed: int = 20200817) -> List[str]:
    """A Zipf-skewed resample of the serve workload.

    Production PTR streams are rank-frequency skewed: a small set of
    router interfaces dominates any snapshot's traffic.  This draws
    ``n`` hostnames from a ``universe``-name head with weight
    ``1/(rank+1)**exponent`` -- deterministic via the fixed ``seed`` --
    which is the workload the memoized hot path is designed for (and
    the one its throughput bound is asserted on).
    """
    base = serve_hostnames(universe)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(base))]
    return random.Random(seed).choices(base, weights=weights, k=n)


def run_serve_bench(rounds: int = 3) -> Dict[str, float]:
    """Time the annotation-serving kernels over :func:`serve_hostnames`
    and :func:`zipf_hostnames`.

    * the linear apply loop (per-hostname ``HoihoResult.extract``
      through the PSL) against warm fused-regex trie dispatch
      (:class:`~repro.serve.service.AnnotationService`, memo off, so
      the rate isolates dispatch);
    * the memoized Zipf hot path against the same stream, memo off;
    * serial against parallel
      :class:`~repro.serve.engine.BulkAnnotator` streaming with
      :func:`bulk_workers` workers.  Each timed call builds a fresh
      service on both sides, which is what one ``repro-hoiho
      annotate`` pays: a service reused across rounds would serve the
      serial side from a memo already filled by the round before.
    """
    from repro.serve.engine import BulkAnnotator
    from repro.serve.service import AnnotationService

    result = serve_conventions()
    hostnames = serve_hostnames()
    zipf = zipf_hostnames()
    workers = bulk_workers()

    linear_seconds = _best_of(
        lambda: [result.extract(h) for h in hostnames], rounds)
    dispatch_service = AnnotationService(result, memo_size=0)
    dispatch_service.warm()
    dispatch_seconds = _best_of(
        lambda: dispatch_service.annotate_batch(hostnames), rounds)

    uncached_service = AnnotationService(result, memo_size=0)
    uncached_service.warm()
    uncached_seconds = _best_of(
        lambda: uncached_service.annotate_batch(zipf), rounds)
    memo_service = AnnotationService(result)
    memo_service.warm()
    memo_service.annotate_batch(zipf)      # fill the memo once
    memo_seconds = _best_of(
        lambda: memo_service.annotate_batch(zipf), rounds)

    def bulk(parallel: Optional[ParallelConfig]) -> int:
        annotator = BulkAnnotator(AnnotationService(result),
                                  parallel=parallel)
        return sum(1 for _ in annotator.annotate(hostnames))

    # The sides alternate, round by round, so that a busy spell of a
    # shared host slows both rather than deciding the ratio.
    fan_out = ParallelConfig(workers=workers, backend="process")
    bulk_serial = bulk_parallel = float("inf")
    for _ in range(rounds):
        bulk_serial = min(bulk_serial, _best_of(lambda: bulk(None), 1))
        bulk_parallel = min(bulk_parallel,
                            _best_of(lambda: bulk(fan_out), 1))
    return {
        "dispatch_per_second": len(hostnames) / dispatch_seconds,
        "speedup_vs_linear": linear_seconds / dispatch_seconds,
        "memo_per_second": len(zipf) / memo_seconds,
        "memo_speedup": uncached_seconds / memo_seconds,
        "bulk_speedup": bulk_serial / bulk_parallel,
        "bulk_workers": workers,
    }


def shadow_divergence_case(n: int = 2000):
    """A constructed divergent world with *known* per-class counts.

    Starts from two identical :func:`serve_conventions` sets, then
    introduces one divergence of each class:

    * ``svc07-bench.org`` is dropped from the candidate
      (``primary_only``);
    * ``extra-bench.org`` exists only in the candidate
      (``candidate_only``);
    * ``confl-bench.org`` exists in both, but the primary's regex
      captures the first number of ``asA-B.cr*`` names and the
      candidate's the second (``conflict`` on every hit).

    The hostname stream cycles a fixed 10-slot pattern -- 4 agreeing
    hits, 2 agreeing misses, 1 of each one-sided class, 2 conflicts --
    so for ``n`` divisible by 10 the expected ledger is exactly::

        agree = 6n/10   primary_only = n/10
        candidate_only = n/10   conflict = 2n/10

    Returns ``(primary, candidate, hostnames, expected)`` where
    ``expected`` maps divergence class to its exact count.  Tests
    assert the observed ledger equals it.
    """
    from repro.core.evaluate import NCScore
    from repro.core.select import LearnedConvention, NCClass

    if n % 10:
        raise ValueError("n must be divisible by 10, got %d" % n)

    def _convention(suffix: str, pattern: str) -> LearnedConvention:
        score = NCScore(tp=6, matches=6)
        score.distinct_asns = {101, 202, 303}
        return LearnedConvention(suffix=suffix,
                                 regexes=(Regex.raw(pattern),),
                                 score=score, nc_class=NCClass.GOOD)

    primary = serve_conventions(n_suffixes=8)
    candidate = serve_conventions(n_suffixes=8)
    del candidate.conventions["svc07-bench.org"]
    candidate.conventions["extra-bench.org"] = _convention(
        "extra-bench.org", r"^as(\d+)\.pop\d+\.extra\-bench\.org$")
    primary.conventions["confl-bench.org"] = _convention(
        "confl-bench.org", r"^as(\d+)-\d+\.cr\d+\.confl\-bench\.org$")
    candidate.conventions["confl-bench.org"] = _convention(
        "confl-bench.org", r"^as\d+-(\d+)\.cr\d+\.confl\-bench\.org$")

    hostnames: List[str] = []
    for i in range(n):
        slot = i % 10
        if slot < 4:            # agree: identical convention, same ASN
            hostnames.append("as%d-et%d.pop%d.svc%02d-bench.org"
                             % (1000 + 7 * i, i % 4, i % 5, slot))
        elif slot < 6:          # agree: neither side knows the suffix
            hostnames.append("host%d.unknown%02d.net" % (i, i % 16))
        elif slot < 7:          # primary_only: dropped from candidate
            hostnames.append("as%d-et%d.pop%d.svc07-bench.org"
                             % (1000 + 7 * i, i % 4, i % 5))
        elif slot < 8:          # candidate_only: added in candidate
            hostnames.append("as%d.pop%d.extra-bench.org"
                             % (1000 + 7 * i, i % 5))
        else:                   # conflict: different capture groups
            hostnames.append("as%d-%d.cr%d.confl-bench.org"
                             % (1000 + i, 5000 + i, i % 9))
    expected = {
        "agree": 6 * n // 10,
        "primary_only": n // 10,
        "candidate_only": n // 10,
        "conflict": 2 * n // 10,
    }
    return primary, candidate, hostnames, expected


def run_shadow_bench(rounds: int = 5) -> Dict[str, object]:
    """Time shadow deployment and check its ledger.

    ``overhead_ratio`` is memo-warm ``annotate_batch`` over the Zipf
    workload through a :class:`~repro.serve.shadow.ShadowService`
    carrying an identical candidate, over a plain
    :class:`~repro.serve.service.AnnotationService` (each side its own
    memo): the cost of shadowing a request stream.  ``observed`` is the
    disagreement ledger over :func:`shadow_divergence_case`, beside its
    ``expected`` ground truth, and ``primary_identical`` says whether
    the shadow-mode answers equal a plain primary service's.
    """
    from repro.serve.service import AnnotationService
    from repro.serve.shadow import (DIVERGENCE_CLASSES, CLASS_AGREE,
                                    ShadowService)

    result = serve_conventions()
    zipf = zipf_hostnames()

    plain = AnnotationService(result)
    plain.warm()
    shadow = ShadowService(AnnotationService(result))
    shadow.load_candidate(result)  # identical candidate: pure overhead
    shadow.warm()
    plain.annotate_batch(zipf)   # fill both sides' memos before timing
    shadow.annotate_batch(zipf)
    single_seconds = _best_of(lambda: plain.annotate_batch(zipf), rounds)
    dual_seconds = _best_of(lambda: shadow.annotate_batch(zipf), rounds)

    primary, candidate, hostnames, expected = shadow_divergence_case()
    ledger_service = ShadowService(AnnotationService(primary))
    ledger_service.load_candidate(candidate)
    ledger_service.warm()
    shadow_asns = ledger_service.annotate_batch(hostnames)
    oracle = AnnotationService(primary)
    oracle.warm()
    report = ledger_service.report()
    return {
        "overhead_ratio": dual_seconds / single_seconds,
        "expected": expected,
        "observed": {cls: report[cls]
                     for cls in (CLASS_AGREE,) + DIVERGENCE_CLASSES},
        "primary_identical":
            shadow_asns == oracle.annotate_batch(hostnames),
    }


def run_obs_window_bench(rounds: int = 3) -> Dict[str, float]:
    """Time windowed telemetry on the serving hot path.

    It touches the hot path in two places, each measured on its own and
    expressed as a fraction of the work it rides on:

    * the **access log** charges each request one buffered
      :meth:`~repro.obs.logjson.JsonLogger.log` enqueue
      (``line_seconds``), over the end-to-end cost of one keep-alive
      ``/annotate`` request against an in-thread server with the access
      log off (``request_seconds``).  The drainer's encode and write
      run off the request path, which is why the access log buffers;
      ``sync_line_seconds`` is what an unbuffered line costs;
    * the **rolling-window fold** runs once per ``flush_interval`` (a
      fixed per-second cost independent of traffic), so its cost is
      one :meth:`~repro.obs.timeseries.RollingWindows.record` of a
      busy snapshot (``record_seconds``) over that interval.

    ``overhead_fraction`` is the sum of the two fractions.  Both are
    computed rather than differenced: the true cost sits far below the
    run-to-run noise of a full load run, while the per-line and
    per-fold costs measure cleanly.
    """
    import os
    import threading
    from http.client import HTTPConnection

    from repro.obs.logjson import JsonLogger
    from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS, MetricsRegistry
    from repro.obs.timeseries import RollingWindows
    from repro.serve.http import AnnotationHTTPServer, HttpConfig, \
        create_listener
    from repro.serve.service import AnnotationService

    rounds = max(rounds, 3)
    service = AnnotationService(serve_conventions())
    service.warm()

    # -- per-request baseline: keep-alive burst, no access log -------
    n_requests = 300
    hostnames = zipf_hostnames(n=n_requests)
    config = HttpConfig(port=0)
    sock = create_listener(config.host, 0)
    server = AnnotationHTTPServer(service, config, sock=sock)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        conn = HTTPConnection("127.0.0.1", server.server_port,
                              timeout=30)
        bodies = [json.dumps({"hostname": hostname}).encode("utf-8")
                  for hostname in hostnames]

        def burst() -> None:
            for body in bodies:
                conn.request("POST", "/annotate", body=body)
                conn.getresponse().read()

        burst()  # warm the memo and the connection before timing
        request_seconds = _best_of(burst, rounds) / n_requests
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)

    # -- access-log line cost ----------------------------------------
    # The enqueue is measured with the drainer parked (huge batch
    # threshold and period), so the number is the uncontended hot-path
    # cost.
    log_lines = 20000
    total_lines = rounds * log_lines
    with tempfile.TemporaryDirectory() as tmpdir:

        def burst_lines(logger) -> None:
            for _ in range(log_lines):
                logger.log("access", method="POST", path="/annotate",
                           status=200, bytes=64,
                           latency_seconds=0.000731,
                           request_id="deadbeefcafe0123")

        buffered = JsonLogger(path=os.path.join(tmpdir, "buf.jsonl"),
                              worker_id=0, buffered=True,
                              flush_seconds=3600.0,
                              buffer_records=total_lines + 1,
                              drain_batch=total_lines + 1)
        line_seconds = _best_of(lambda: burst_lines(buffered),
                                rounds) / log_lines
        buffered.close()
        sync = JsonLogger(path=os.path.join(tmpdir, "sync.jsonl"),
                          worker_id=0)
        sync_line_seconds = _best_of(lambda: burst_lines(sync),
                                     rounds) / log_lines
        sync.close()

    # -- rolling-window fold cost ------------------------------------
    # Pre-build a run of snapshots that advance the way a busy worker's
    # do (counters and latency buckets all moving), so every record()
    # pays for a real diff + merge, not an empty delta.
    window_records = 200
    registry = MetricsRegistry()
    snapshots = []
    for index in range(window_records + 1):
        registry.counter("http_requests").inc(50)
        registry.labelled("http_responses").inc("200", 49)
        registry.labelled("http_responses").inc("500", 1)
        histogram = registry.histogram("http_request_seconds",
                                       DEFAULT_LATENCY_BOUNDS)
        for i in range(50):
            histogram.observe(0.0005 * ((index + i) % 40 + 1))
        snapshots.append(registry.snapshot())

    def fold() -> None:
        windows = RollingWindows(config.window_seconds,
                                 config.window_count)
        for index, snapshot in enumerate(snapshots):
            windows.record(snapshot, ts=1000.0 + index)

    record_seconds = _best_of(fold, rounds) / len(snapshots)
    return {
        "request_seconds": request_seconds,
        "line_seconds": line_seconds,
        "sync_line_seconds": sync_line_seconds,
        "record_seconds": record_seconds,
        "overhead_fraction": line_seconds / request_seconds
        + record_seconds / config.flush_interval,
    }


def incremental_training_sets(n_suffixes: int = 24,
                              per_suffix: int = 40,
                              perturb_fraction: float = 0.05):
    """Two synthetic snapshots for the incremental-learning kernels.

    ``snap0`` is the baseline; ``snap1`` mutates ~``perturb_fraction``
    of its suffixes (their base ASN shifts, so every hostname and
    training ASN in those suffixes changes) and leaves the rest
    byte-identical -- the cross-snapshot shape the delta planner is
    built for.  Suffixes are registered domains (``incNN-bench.org``)
    so each one really is its own dataset under the embedded PSL.

    Returns ``(snap0, snap1, n_mutated)``.
    """
    from repro.eval.timeline import TrainingSet

    n_mutated = max(1, round(n_suffixes * perturb_fraction))
    mutated = set(range(n_mutated))

    def snapshot(label: str, mutate: bool) -> "TrainingSet":
        items: List[TrainingItem] = []
        for index in range(n_suffixes):
            suffix = "inc%02d-bench.org" % index
            base = 3000 + 101 * index
            if mutate and index in mutated:
                base += 17
            for i in range(per_suffix):
                items.append(TrainingItem(
                    "as%d-et%d.pop%d.%s" % (base + 13 * i, i % 4, i % 5,
                                            suffix),
                    base + 13 * i))
            for i in range(per_suffix // 4):
                items.append(TrainingItem("lo0.cr%d.%s" % (i, suffix),
                                          base))
        return TrainingSet(label=label, kind="itdk", method="rtaa",
                           year=2020.0, items=items)

    return snapshot("snap0", False), snapshot("snap1", True), n_mutated


def run_incremental_bench(rounds: int = 2) -> Dict[str, object]:
    """Time incremental learning over :func:`incremental_training_sets`.

    Per round, in a fresh store: a **cold** ``learn_timeline`` of
    ``snap0``, a **warm repeat** of the identical run (served by the
    layered whole-result cache), and the **perturbed** ``snap1`` --
    ~5% of suffixes mutated, under a new label -- learned both from
    scratch (no store) and incrementally (warm store: only changed
    suffixes relearn).  ``warm_speedup`` is cold over warm repeat,
    best of ``rounds`` each; ``hits`` and ``misses`` are the
    incremental run's suffix-cache counters; ``identical`` says whether
    every warm and incremental result equals its cold or from-scratch
    twin, byte for byte (conventions JSON).
    """
    from repro.core.io import conventions_to_json
    from repro.eval.context import ExperimentContext, Scale
    from repro.store import ArtifactStore

    snap0, snap1, _ = incremental_training_sets()
    workers = bulk_workers()
    parallel = ParallelConfig(workers=workers, backend="process")

    def timed(store, training_set):
        ctx = ExperimentContext(seed=2020, scale=Scale.TINY,
                                parallel=parallel, store=store)
        # The synthetic snapshots stand in for the generated timeline.
        ctx._timeline = [training_set]
        start = time.perf_counter()
        learned = ctx.learn_timeline()
        return time.perf_counter() - start, learned, ctx

    def same(first, second) -> bool:
        return all(conventions_to_json(first[label])
                   == conventions_to_json(second[label])
                   for label in second)

    cold_best = warm_best = float("inf")
    hits = misses = 0
    identical = True
    for _ in range(max(1, rounds)):
        with tempfile.TemporaryDirectory(prefix="repro-bench-inc-") as tmp:
            cold_s, cold, _ = timed(ArtifactStore(tmp), snap0)
            warm_s, warm, _ = timed(ArtifactStore(tmp), snap0)
            _, scratch, _ = timed(None, snap1)
            _, inc, inc_ctx = timed(ArtifactStore(tmp), snap1)

            counters = inc_ctx.metrics.snapshot()["counters"]
            hits = counters.get("suffix_cache_hits", 0)
            misses = counters.get("suffix_cache_misses", 0)
            identical = identical and same(inc, scratch) \
                and same(warm, cold)
            cold_best = min(cold_best, cold_s)
            warm_best = min(warm_best, warm_s)
    return {
        "parallel_workers": workers,
        "warm_speedup": cold_best / warm_best,
        "hits": hits,
        "misses": misses,
        "identical": identical,
    }


def obs_world_items(n_suffixes: int = 16,
                    per_suffix: int = 60) -> List[TrainingItem]:
    """A genuinely multi-suffix workload for the tracer kernel.

    ``opNN-bench.org`` is itself a registered domain, so each suffix is
    its own dataset: the run emits one ``learn.suffix`` tree per
    suffix, which is the span volume the overhead is measured against.
    """
    items: List[TrainingItem] = []
    for index in range(n_suffixes):
        suffix = "op%02d-bench.org" % index
        base = 2000 + 101 * index
        for i in range(per_suffix):
            items.append(TrainingItem(
                "as%d-et%d.pop%d.%s" % (base + 13 * i, i % 4, i % 5,
                                        suffix),
                base + 13 * i))
        for i in range(per_suffix // 3):
            items.append(TrainingItem("lo0.cr%d.%s" % (i, suffix), base))
    return items


def run_obs_bench(rounds: int = 5) -> Dict[str, float]:
    """Time what disabled tracing costs an untraced learning run.

    ``overhead_fraction`` is the per-call cost of a
    :data:`~repro.obs.trace.NULL_TRACER` span site times the spans a
    traced run of :func:`obs_world_items` emits (``spans_per_run``),
    over the untraced run's wall time (best of at least five rounds).
    It is computed rather than differenced because the true overhead is
    far below run-to-run timing noise; the per-site cost itself is
    measured.
    """
    from repro.obs.trace import NULL_TRACER, Tracer

    rounds = max(rounds, 5)
    world_items = obs_world_items()
    hoiho = Hoiho()
    off_seconds = _best_of(lambda: hoiho.run(world_items), rounds)

    tracer = Tracer()
    Hoiho(tracer=tracer).run(world_items)
    tracer.close()
    spans_per_run = len(tracer.records)

    # Per-site cost of the no-op path: open + annotate + close one
    # null span, amortised over a large loop.
    loops = 200000

    def null_sites() -> None:
        span_site = NULL_TRACER.span
        for _ in range(loops):
            with span_site("bench", item=1) as span:
                span.set(done=True)

    null_span_seconds = _best_of(null_sites, max(rounds, 3)) / loops
    return {
        "spans_per_run": spans_per_run,
        "overhead_fraction": null_span_seconds * spans_per_run
        / off_seconds,
    }
