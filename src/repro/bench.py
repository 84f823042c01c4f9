"""Benchmark-regression harness for the learner, pipeline, and server.

Measures the learner's hot paths -- cached vs uncached suffix learning,
regex-set evaluation, and serial vs parallel ``Hoiho.run_datasets`` --
plus the pipeline kernels added in PR 2 (serial vs parallel timeline
builds, eager vs lazy routing, cold vs warm artifact store) and the
``serve`` kernels added in PR 3 (linear ``HoihoResult.extract`` loop vs
suffix-trie dispatch, cold vs warm service, serial vs parallel bulk
annotation) and the ``obs`` section added in PR 5 (tracer overhead
with tracing disabled and enabled, asserted against the <2% budget)
and the ``incremental`` section added in PR 7 (cold vs warm-repeat vs
perturbed timeline learning through the per-suffix cache)
and writes the numbers to ``BENCH_learner.json`` so the performance
trajectory is tracked across PRs.  Run it via ``repro-hoiho bench``
or ``make bench``; :data:`SECTIONS` lists the sections, and
``make bench SECTIONS=...`` / ``repro-hoiho bench --section NAME``
refresh only the named ones.  :data:`FLOORS` holds every acceptance
floor, evaluated by :func:`check_floors` (``repro-hoiho bench
--check``).

The learner and serving workloads are synthetic and fixed (no world
generation); the pipeline kernels use a TINY world with a restricted
timeline so the suite stays fast.  Absolute times vary across machines,
the ratios (speedups, hit rates) travel well.
"""

from __future__ import annotations

import json
import operator
import random
import tempfile
import time
from typing import Callable, Dict, List, NamedTuple, Optional, \
    Sequence, Tuple

from repro.core.evaluate import evaluate_nc
from repro.core.hoiho import Hoiho, HoihoConfig, learn_suffix, \
    learn_suffix_traced
from repro.core.matchcache import MatchCache
from repro.core.parallel import ParallelConfig, default_workers
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset, TrainingItem

#: Schema version of BENCH_learner.json; bump on layout changes.
#: v5: serve section gains the ``memo`` (Zipf) kernel and
#: ``fused_plans``; multi-worker sections record the worker count they
#: actually ran with; obs ``enabled.overhead_fraction`` is clamped >= 0
#: with the raw value and a ``noise_floor`` flag alongside.
#: v6: new ``incremental`` section -- cold vs warm-repeat vs
#: 5%-perturbed timeline learning through the per-suffix cache, with
#: ``suffix_cache`` hit/miss counters and ``parallel_workers``.
#: v7: new ``http`` section -- network serving over
#: ``repro.serve.http`` measured by the open/closed-loop load
#: generator (throughput, p50/p90/p99 latency, Zipf workload
#: fingerprint shared with the in-process serve kernels).
#: v8: new ``shadow`` section -- dual-annotation (ShadowService)
#: overhead vs a single set on the Zipf workload, asserted under
#: ``SHADOW_OVERHEAD_BUDGET``, plus the per-suffix disagreement ledger
#: checked exact on a constructed divergent world.
#: v9: new ``obs_window`` section -- time-windowed telemetry cost on
#: the serving hot path: the per-request access-log line and the
#: per-flush-interval rolling-window fold, each expressed as a
#: fraction of what a request (resp. a busy second) costs, summed and
#: asserted under ``OBS_WINDOW_OVERHEAD_BUDGET``.
BENCH_VERSION = 9

#: The tracing-disabled overhead the instrumentation must stay under.
OBS_OVERHEAD_BUDGET = 0.02

#: Windowed-telemetry ceiling: the access-log line per request plus
#: the rolling-window fold per flush interval must cost under this
#: fraction of the serving hot path.
OBS_WINDOW_OVERHEAD_BUDGET = 0.03

#: Dual-annotation cost ceiling: shadow-mode ``annotate_batch`` on the
#: Zipf workload must stay within this multiple of a single set's cost
#: (two memo lookups plus the ledger fold, so ~2x is the floor).
SHADOW_OVERHEAD_BUDGET = 2.2

#: ITDK labels the pipeline kernels build (restricted for speed).
PIPELINE_BENCH_LABELS = ["2017-08", "2018-03", "2019-01", "2020-01"]


def bench_dataset(n_annotated: int = 60, n_plain: int = 20,
                  suffix: str = "example.net") -> SuffixDataset:
    """The microbenchmark suffix: ASN-annotated plus plain hostnames."""
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


def bench_world_items(n_suffixes: int = 24,
                      per_suffix: int = 90) -> List[TrainingItem]:
    """A multi-suffix training set for the fan-out benchmark."""
    items: List[TrainingItem] = []
    for index in range(n_suffixes):
        suffix = "op%02d.example.org" % index
        base = 2000 + 101 * index
        for i in range(per_suffix):
            items.append(TrainingItem(
                "as%d-et%d.pop%d.%s" % (base + 13 * i, i % 4, i % 5, suffix),
                base + 13 * i))
        for i in range(per_suffix // 3):
            items.append(TrainingItem("lo0.cr%d.%s" % (i, suffix), base))
    return items


def _best_of(func: Callable[[], object], rounds: int) -> float:
    """Minimum wall time of ``rounds`` calls (best-of timing)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bulk_workers(jobs: Optional[int] = None) -> int:
    """Worker count for the multi-worker bench sections.

    An explicit ``--jobs N`` wins (1 = serial); otherwise (``None`` or
    0) ``min(4, cpu_count)`` -- enough to demonstrate scaling without
    turning the bench into a machine-sizing exercise.  Whatever this
    returns is what the section records as ``parallel_workers`` (the
    count actually used, not the machine's capacity).
    """
    if jobs:
        return jobs
    return min(4, default_workers())


def run_bench(rounds: int = 5,
              jobs: Optional[int] = None) -> Dict[str, object]:
    """Run the learner benchmark suite and return the report payload."""
    items = [(it.hostname, it.train_asn) for it in bench_dataset().items]

    def fresh_dataset() -> SuffixDataset:
        # Fresh per round so per-dataset memos don't leak across rounds.
        return SuffixDataset("example.net", [
            TrainingItem(hostname, asn) for hostname, asn in items])

    cached_config = HoihoConfig()
    uncached_config = HoihoConfig(enable_cache=False)

    learn_cached = _best_of(
        lambda: learn_suffix(fresh_dataset(), cached_config), rounds)
    learn_uncached = _best_of(
        lambda: learn_suffix(fresh_dataset(), uncached_config), rounds)

    # Cache work counters for one traced learn.
    _, trace = learn_suffix_traced(fresh_dataset(), cached_config)
    stats = trace.cache_stats.as_dict() if trace.cache_stats else {}

    # evaluate_nc on a multi-regex set: cold (fresh engine) vs warm
    # (vector composition from a pre-populated cache).
    regex_set = bench_regex_set()
    eval_dataset = fresh_dataset()
    evaluate_cold = _best_of(
        lambda: evaluate_nc(regex_set, eval_dataset), max(rounds, 20))
    warm_cache = MatchCache(eval_dataset)
    warm_cache.score_nc(regex_set)
    evaluate_warm = _best_of(
        lambda: warm_cache.score_nc(regex_set), max(rounds, 20))

    # Serial vs parallel run_datasets over a multi-suffix world.
    world_items = bench_world_items()
    serial_hoiho = Hoiho()
    run_serial = _best_of(lambda: serial_hoiho.run(world_items),
                          max(1, rounds // 2))
    workers = jobs or default_workers()
    parallel_hoiho = Hoiho(parallel=ParallelConfig(
        workers=workers, backend="process"))
    run_parallel = _best_of(lambda: parallel_hoiho.run(world_items),
                            max(1, rounds // 2))

    return {
        "version": BENCH_VERSION,
        "workload": {
            "suffix_items": len(items),
            "world_items": len(world_items),
            "world_suffixes": 24,
            "rounds": rounds,
            "parallel_workers": workers,
        },
        "suffix_learn": {
            "cached_seconds": learn_cached,
            "uncached_seconds": learn_uncached,
            "cache_speedup": learn_uncached / learn_cached
            if learn_cached else 0.0,
        },
        "cache": stats,
        "evaluate_nc": {
            "cold_seconds": evaluate_cold,
            "warm_seconds": evaluate_warm,
            "warm_speedup": evaluate_cold / evaluate_warm
            if evaluate_warm else 0.0,
        },
        "run_datasets": {
            "serial_seconds": run_serial,
            "parallel_seconds": run_parallel,
            "parallel_speedup": run_serial / run_parallel
            if run_parallel else 0.0,
        },
    }


def run_pipeline_bench(rounds: int = 2,
                       jobs: Optional[int] = None) -> Dict[str, object]:
    """Run the pipeline kernels and return the ``pipeline`` section.

    Three kernels, matching the three pieces of the PR-2 pipeline
    layer: serial vs parallel :func:`build_timeline` fan-out, eager vs
    lazy :class:`RoutingModel` construction, and cold vs warm artifact
    store round-trips of the world + timeline.
    """
    # Imported here so the learner-only suite stays import-light.
    from repro.eval.context import ExperimentContext, Scale
    from repro.eval.timeline import build_timeline
    from repro.store import ArtifactStore
    from repro.topology.world import WorldConfig, generate_world
    from repro.traceroute.routing import RoutingModel

    seed = 2020
    labels = list(PIPELINE_BENCH_LABELS)
    world = generate_world(seed, WorldConfig.tiny())
    workers = bulk_workers(jobs)

    # Kernel 1: timeline fan-out, one worker task per snapshot.
    timeline_serial = _best_of(
        lambda: build_timeline(world, seed, itdk_labels=labels), rounds)
    parallel_config = ParallelConfig(workers=workers, backend="process",
                                     chunk_size=1)
    timeline_parallel = _best_of(
        lambda: build_timeline(world, seed, itdk_labels=labels,
                               parallel=parallel_config), rounds)

    # Kernel 2: routing construction, eager (all destinations) vs lazy
    # (first queried destination only).
    graph = generate_world(seed, WorldConfig.small()).graph
    asns = graph.asns()
    src, dst = asns[0], asns[-1]
    routing_eager = _best_of(
        lambda: RoutingModel(graph, eager=True), max(rounds, 3))
    routing_lazy = _best_of(
        lambda: RoutingModel(graph).as_path(src, dst), max(rounds, 3))

    # Kernel 3: artifact store, cold (generate + persist) vs warm
    # (served straight from disk).
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        store = ArtifactStore(tmp)

        def _timeline_with_store() -> None:
            context = ExperimentContext(seed=seed, scale=Scale.TINY,
                                        itdk_labels=labels, store=store)
            context.timeline

        start = time.perf_counter()
        _timeline_with_store()
        store_cold = time.perf_counter() - start
        store_warm = _best_of(_timeline_with_store, max(rounds, 3))

    return {
        "workload": {
            "itdk_labels": len(labels),
            "training_sets": len(labels) + 2,
            "scale": "tiny",
            "routing_ases": len(asns),
            "rounds": rounds,
            "parallel_workers": workers,
        },
        "timeline": {
            "serial_seconds": timeline_serial,
            "parallel_seconds": timeline_parallel,
            "parallel_speedup": timeline_serial / timeline_parallel
            if timeline_parallel else 0.0,
            "parallel_workers": workers,
        },
        "routing": {
            "eager_seconds": routing_eager,
            "lazy_first_path_seconds": routing_lazy,
            "lazy_speedup": routing_eager / routing_lazy
            if routing_lazy else 0.0,
        },
        "store": {
            "cold_seconds": store_cold,
            "warm_seconds": store_warm,
            "warm_speedup": store_cold / store_warm
            if store_warm else 0.0,
        },
    }


def serve_conventions(n_suffixes: int = 24) -> "HoihoResult":
    """A hand-built convention set over true registered domains.

    The suffixes must be registered domains under the embedded PSL
    (``svcNN-bench.org`` is: public suffix ``org`` + one label) so the
    old linear path (``HoihoResult.extract`` via the PSL) and the
    trie-dispatch path annotate identically -- the throughput
    comparison is apples to apples.
    """
    from repro.core.evaluate import NCScore
    from repro.core.hoiho import HoihoResult
    from repro.core.select import LearnedConvention, NCClass

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
    the one the v5 throughput floor is asserted on).
    """
    base = serve_hostnames(universe)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(base))]
    return random.Random(seed).choices(base, weights=weights, k=n)


def _serve_dispatch_kernels(result: "HoihoResult", hostnames: List[str],
                            zipf: List[str],
                            rounds: int) -> Dict[str, object]:
    """The single-core serve kernels: linear apply, fused trie
    dispatch (memo off, so the number isolates dispatch itself), and
    the memoized Zipf hot path."""
    from repro.serve.service import AnnotationService

    count = len(hostnames)

    # Kernel 1: the pre-serve apply loop -- PSL lookup per hostname.
    linear_seconds = _best_of(
        lambda: [result.extract(h) for h in hostnames], rounds)

    # Kernel 2a: cold dispatch -- build + warm the index, then a full
    # batch (what one `repro-hoiho annotate` invocation pays).
    def dispatch_cold() -> None:
        service = AnnotationService(result, memo_size=0)
        service.warm()
        service.annotate_batch(hostnames)

    cold_seconds = _best_of(dispatch_cold, rounds)

    # Kernel 2b: warm dispatch -- the steady-state uncached rate of
    # the fused-regex trie (memo off: the mixed workload is nearly
    # duplicate-free, so this isolates dispatch).
    warm_service = AnnotationService(result, memo_size=0)
    warm_service.warm()
    warm_seconds = _best_of(
        lambda: warm_service.annotate_batch(hostnames), rounds)

    # Kernel 3: the memoized hot path on the Zipf workload -- what a
    # steady-state service actually sees -- against the same workload
    # with the memo disabled.
    zipf_count = len(zipf)
    uncached_service = AnnotationService(result, memo_size=0)
    uncached_service.warm()
    memo_uncached = _best_of(
        lambda: uncached_service.annotate_batch(zipf), rounds)
    memo_service = AnnotationService(result)
    memo_service.warm()
    memo_service.annotate_batch(zipf)      # fill the memo once
    memo_warm = _best_of(
        lambda: memo_service.annotate_batch(zipf), rounds)
    memo_stats = memo_service.memo.stats()

    return {
        "linear_apply": {
            "seconds": linear_seconds,
            "hostnames_per_second": count / linear_seconds
            if linear_seconds else 0.0,
        },
        "dispatch": {
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_hostnames_per_second": count / warm_seconds
            if warm_seconds else 0.0,
            "speedup_vs_linear": linear_seconds / warm_seconds
            if warm_seconds else 0.0,
            "fused_plans": warm_service.index.fused_plans(),
        },
        "memo": {
            "zipf_hostnames": zipf_count,
            "zipf_universe": len(set(zipf)),
            "uncached_seconds": memo_uncached,
            "warm_seconds": memo_warm,
            "warm_hostnames_per_second": zipf_count / memo_warm
            if memo_warm else 0.0,
            "memo_speedup": memo_uncached / memo_warm
            if memo_warm else 0.0,
            "hit_rate": memo_stats["hit_rate"],
            "capacity": memo_stats["capacity"],
        },
    }


def run_dispatch_bench(rounds: int = 3,
                       jobs: Optional[int] = None) -> Dict[str, object]:
    """The single-core serve kernels only (no process fan-out): the
    quick iteration loop behind ``bench --section dispatch``.
    ``jobs`` is accepted for CLI symmetry but unused -- nothing here
    fans out."""
    del jobs
    result = serve_conventions()
    hostnames = serve_hostnames()
    zipf = zipf_hostnames()
    section: Dict[str, object] = {
        "workload": {
            "conventions": len(result.conventions),
            "hostnames": len(hostnames),
            "zipf_hostnames": len(zipf),
            "rounds": rounds,
        },
    }
    section.update(_serve_dispatch_kernels(result, hostnames, zipf,
                                           rounds))
    return section


def run_serve_bench(rounds: int = 3,
                    jobs: Optional[int] = None) -> Dict[str, object]:
    """Run the annotation-serving kernels; returns the ``serve`` section.

    Five kernels, matching the layers of the serving subsystem: the old
    linear apply loop (per-hostname ``HoihoResult.extract`` through the
    PSL), cold vs warm fused-regex trie dispatch
    (:class:`~repro.serve.service.AnnotationService`, memo off), the
    memoized Zipf hot path (memo on -- the steady-state number), and
    serial vs parallel :class:`~repro.serve.engine.BulkAnnotator`
    streaming with ``min(4, cpu_count)`` workers.
    """
    from repro.serve.engine import BulkAnnotator
    from repro.serve.service import AnnotationService

    result = serve_conventions()
    hostnames = serve_hostnames()
    zipf = zipf_hostnames()
    workers = bulk_workers(jobs)

    section: Dict[str, object] = {
        "workload": {
            "conventions": len(result.conventions),
            "hostnames": len(hostnames),
            "zipf_hostnames": len(zipf),
            "rounds": rounds,
            "parallel_workers": workers,
        },
    }
    section.update(_serve_dispatch_kernels(result, hostnames, zipf,
                                           rounds))

    # Kernel 4: bulk streaming, serial vs parallel chunk fan-out
    # (adaptive chunking, packed payloads, fork-shared index).
    serial_annotator = BulkAnnotator(AnnotationService(result))
    bulk_serial = _best_of(
        lambda: sum(1 for _ in serial_annotator.annotate(hostnames)),
        rounds)
    parallel_annotator = BulkAnnotator(
        AnnotationService(result),
        parallel=ParallelConfig(workers=workers, backend="process"))
    bulk_parallel = _best_of(
        lambda: sum(1 for _ in parallel_annotator.annotate(hostnames)),
        rounds)
    section["bulk"] = {
        "serial_seconds": bulk_serial,
        "parallel_seconds": bulk_parallel,
        "parallel_speedup": bulk_serial / bulk_parallel
        if bulk_parallel else 0.0,
        "parallel_workers": workers,
    }
    return section


def run_http_bench(single_requests: int = 600,
                   batch_requests: int = 40,
                   batch_size: int = 500,
                   open_requests: int = 400,
                   open_rate: float = 200.0,
                   concurrency: int = 4,
                   workers: int = 2) -> Dict[str, object]:
    """Measure :mod:`repro.serve.http` end to end; the ``http`` section.

    Boots a real pre-fork server (:class:`~repro.serve.http.ServerProcess`,
    ``workers`` processes sharing one warmed index) on an ephemeral
    port and drives it with :func:`~repro.serve.loadgen.run_loadgen`
    over the same deterministic Zipf stream the in-process serve
    kernels use -- the recorded ``workload_fingerprint`` proves it.
    Three measurements:

    * ``closed_single`` -- capacity on ``POST /annotate``,
      ``concurrency`` keep-alive connections;
    * ``closed_batch`` -- capacity on ``POST /annotate/batch`` with
      ``batch_size`` hostnames per request (the bulk-consumer shape);
    * ``open`` -- latency at a fixed offered rate, queueing delay
      included (coordinated-omission corrected).

    The server is then SIGTERM-drained; ``drain_exit_code`` records
    that the graceful path actually exits 0 under measurement load.
    """
    from repro.core.io import conventions_to_json
    from repro.serve.http import HttpConfig, ServerProcess
    from repro.serve.loadgen import (LoadGenConfig, run_loadgen,
                                     workload_fingerprint)

    conventions_json = conventions_to_json(serve_conventions())
    zipf = zipf_hostnames()
    config = HttpConfig(port=0, workers=workers)
    section: Dict[str, object] = {
        "workload": {
            "zipf_hostnames": len(zipf),
            "workload_fingerprint": workload_fingerprint(zipf),
            "workers": workers,
            "concurrency": concurrency,
        },
    }
    server = ServerProcess(conventions_json, config).start()
    try:
        section["closed_single"] = run_loadgen(
            LoadGenConfig(host=server.host, port=server.port,
                          mode="closed", requests=single_requests,
                          concurrency=concurrency), zipf)
        section["closed_batch"] = run_loadgen(
            LoadGenConfig(host=server.host, port=server.port,
                          mode="closed", requests=batch_requests,
                          concurrency=max(2, concurrency // 2),
                          batch_size=batch_size), zipf)
        section["open"] = run_loadgen(
            LoadGenConfig(host=server.host, port=server.port,
                          mode="open", requests=open_requests,
                          concurrency=concurrency, rate=open_rate), zipf)
    finally:
        section["drain_exit_code"] = server.stop()
    return section


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
    ``expected`` maps divergence class to its exact count.  The bench
    (and CI) assert the observed ledger equals it.
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
    """Measure shadow deployment; returns the ``shadow`` section.

    Two halves:

    * ``overhead`` -- memo-warm ``annotate_batch`` over the Zipf
      workload, a plain :class:`~repro.serve.service.AnnotationService`
      vs a :class:`~repro.serve.shadow.ShadowService` carrying an
      identical candidate (each side its own memo).  The dual/single
      ratio is the cost of shadowing a request stream, asserted under
      :data:`SHADOW_OVERHEAD_BUDGET`.
    * ``ledger`` -- the per-suffix disagreement ledger run over
      :func:`shadow_divergence_case`, with the observed class counts
      compared to the constructed ground truth (``exact``), and the
      shadow-mode primary results compared byte-for-byte to a plain
      primary service (``primary_identical``).
    """
    from repro.serve.loadgen import workload_fingerprint
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
    ratio = dual_seconds / single_seconds if single_seconds else 0.0

    primary, candidate, hostnames, expected = shadow_divergence_case()
    ledger_service = ShadowService(AnnotationService(primary))
    ledger_service.load_candidate(candidate)
    ledger_service.warm()
    shadow_asns = ledger_service.annotate_batch(hostnames)
    oracle = AnnotationService(primary)
    oracle.warm()
    report = ledger_service.report()
    observed = {cls: report[cls]
                for cls in (CLASS_AGREE,) + DIVERGENCE_CLASSES}

    return {
        "workload": {
            "conventions": len(result.conventions),
            "zipf_hostnames": len(zipf),
            "rounds": rounds,
            "workload_fingerprint": workload_fingerprint(zipf),
        },
        "overhead": {
            "single_seconds": single_seconds,
            "dual_seconds": dual_seconds,
            "overhead_ratio": ratio,
            "budget_ratio": SHADOW_OVERHEAD_BUDGET,
            "within_budget": ratio <= SHADOW_OVERHEAD_BUDGET,
            "dual_hostnames_per_second":
                len(zipf) / dual_seconds if dual_seconds else 0.0,
        },
        "ledger": {
            "hostnames": len(hostnames),
            "expected": expected,
            "observed": observed,
            "exact": observed == expected,
            "primary_identical":
                shadow_asns == oracle.annotate_batch(hostnames),
            "disagreement_fraction": report["disagreement_fraction"],
        },
    }


def run_obs_window_bench(rounds: int = 3) -> Dict[str, object]:
    """Measure windowed-telemetry cost; returns the ``obs_window``
    section.

    The telemetry added with the time axis touches the serving hot
    path in two places, each measured on its own and expressed as a
    fraction of the work it rides on:

    * the **access log** charges each request one buffered
      :meth:`~repro.obs.logjson.JsonLogger.log` enqueue, so its cost
      is that amortised call over the end-to-end cost of one
      keep-alive ``/annotate`` request against an in-thread server
      (access log *off*, so the request time is the clean baseline).
      The drainer's deferred encode+write is *reported* per line but
      not budgeted: like the metrics flush loop it runs off the
      request path (in a live server it overlaps the socket waits),
      which is exactly why the access log buffers.  The synchronous
      per-line cost is reported too -- the price the buffer keeps off
      the hot path;
    * the **rolling-window fold** runs once per ``flush_interval`` (a
      fixed per-second cost independent of traffic), so its cost is
      one :meth:`~repro.obs.timeseries.RollingWindows.record` of a
      busy snapshot over the interval it amortises across.

    Both fractions are computed rather than differenced -- like the
    ``obs`` section's disabled overhead, the true cost sits far below
    run-to-run noise of a full load run, while the per-line and
    per-fold costs themselves measure cleanly.  ``within_budget``
    asserts the sum stays under :data:`OBS_WINDOW_OVERHEAD_BUDGET`.
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
    result = serve_conventions()
    service = AnnotationService(result)
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
    # Three numbers: the buffered enqueue the request thread actually
    # pays (budgeted), the deferred per-line encode+write the drainer
    # pays later (reported), and what a synchronous line would have
    # cost (reported; the price the buffer keeps off the hot path).
    # The enqueue is measured with the drainer parked (huge batch
    # threshold and period) so the number is the uncontended hot-path
    # cost, then one timed flush() drains everything for the deferred
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
        start = time.perf_counter()
        buffered.flush()
        drain_line_seconds = ((time.perf_counter() - start)
                              / total_lines)
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

    access_fraction = (line_seconds / request_seconds
                       if request_seconds else 0.0)
    window_fraction = record_seconds / config.flush_interval
    overhead = access_fraction + window_fraction
    return {
        "workload": {
            "http_requests": n_requests,
            "log_lines": log_lines,
            "window_records": len(snapshots),
            "rounds": rounds,
            "flush_interval_seconds": config.flush_interval,
            "window_seconds": config.window_seconds,
            "window_count": config.window_count,
        },
        "request_seconds": request_seconds,
        "access_log": {
            "line_seconds": line_seconds,
            "drain_line_seconds": drain_line_seconds,
            "sync_line_seconds": sync_line_seconds,
            "fraction_of_request": access_fraction,
        },
        "window": {
            "record_seconds": record_seconds,
            "fraction_per_second": window_fraction,
        },
        "overhead_fraction": overhead,
        "budget_fraction": OBS_WINDOW_OVERHEAD_BUDGET,
        "within_budget": overhead <= OBS_WINDOW_OVERHEAD_BUDGET,
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


def run_incremental_bench(rounds: int = 2,
                          jobs: Optional[int] = None) -> Dict[str, object]:
    """The incremental-learning kernels; returns the ``incremental``
    section.

    Three timings over a two-snapshot synthetic timeline: a **cold**
    ``learn_timeline`` against an empty store, a **warm repeat** of the
    identical run (served by the layered whole-result cache), and a
    **perturbed** snapshot -- ~5% of suffixes mutated, arriving under a
    new label -- measured both from scratch (no store) and
    incrementally (warm store: only changed suffixes relearn).
    ``identical`` asserts the incremental results are byte-identical
    (conventions JSON) to the from-scratch ones.
    """
    from repro.core.io import conventions_to_json
    from repro.eval.context import ExperimentContext, Scale
    from repro.store import ArtifactStore

    snap0, snap1, n_mutated = incremental_training_sets()
    workers = bulk_workers(jobs)
    parallel = ParallelConfig(workers=workers, backend="process")

    def context(store, training_set):
        ctx = ExperimentContext(seed=2020, scale=Scale.TINY,
                                parallel=parallel, store=store)
        # The synthetic snapshots stand in for the generated timeline.
        ctx._timeline = [training_set]
        return ctx

    cold_best = warm_best = scratch_best = inc_best = float("inf")
    hits = misses = 0
    identical = True
    for _ in range(max(1, rounds)):
        with tempfile.TemporaryDirectory(prefix="repro-bench-inc-") as tmp:
            def timed(store, training_set):
                ctx = context(store, training_set)
                start = time.perf_counter()
                learned = ctx.learn_timeline()
                return time.perf_counter() - start, learned, ctx

            cold_s, cold, _ = timed(ArtifactStore(tmp), snap0)
            warm_s, warm, _ = timed(ArtifactStore(tmp), snap0)
            scratch_s, scratch, _ = timed(None, snap1)
            inc_s, inc, inc_ctx = timed(ArtifactStore(tmp), snap1)

            counters = inc_ctx.metrics.snapshot()["counters"]
            hits = counters.get("suffix_cache_hits", 0)
            misses = counters.get("suffix_cache_misses", 0)
            identical = identical and all(
                conventions_to_json(inc[label])
                == conventions_to_json(scratch[label])
                for label in scratch)
            identical = identical and all(
                conventions_to_json(warm[label])
                == conventions_to_json(cold[label])
                for label in cold)
            cold_best = min(cold_best, cold_s)
            warm_best = min(warm_best, warm_s)
            scratch_best = min(scratch_best, scratch_s)
            inc_best = min(inc_best, inc_s)

    resolved = hits + misses
    n_suffixes = 24
    return {
        "workload": {
            "suffixes": n_suffixes,
            "items": len(snap0.items),
            "perturbed_suffixes": n_mutated,
            "perturbed_fraction": n_mutated / n_suffixes,
            "rounds": rounds,
            "parallel_workers": workers,
        },
        "cold": {"seconds": cold_best},
        "warm_repeat": {
            "seconds": warm_best,
            "speedup": cold_best / warm_best if warm_best else 0.0,
        },
        "perturbed": {
            "from_scratch_seconds": scratch_best,
            "incremental_seconds": inc_best,
            "speedup": scratch_best / inc_best if inc_best else 0.0,
            "suffix_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / resolved if resolved else 0.0,
            },
            "identical": identical,
        },
    }


def obs_world_items(n_suffixes: int = 16,
                    per_suffix: int = 60) -> List[TrainingItem]:
    """A genuinely multi-suffix workload for the tracer benchmark.

    Unlike :func:`bench_world_items` (whose ``opNN.example.org`` names
    all share the registered domain ``example.org`` and so collapse
    into one dataset), ``opNN-bench.org`` is itself a registered domain
    -- the run emits one ``learn.suffix`` tree per suffix, which is the
    span volume the overhead numbers should be measured against.
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


def run_obs_bench(rounds: int = 5) -> Dict[str, object]:
    """Measure the observability layer's cost; returns the ``obs``
    section.

    Two numbers matter.  *Disabled* overhead -- what every un-traced
    run pays for the instrumentation being present at all -- is the
    per-call cost of a :data:`~repro.obs.trace.NULL_TRACER` span site
    times the spans a traced run of the same workload would emit,
    expressed as a fraction of the untraced wall time.  It is computed
    rather than differenced because the true overhead is far below
    run-to-run timing noise; the per-site cost itself is measured.
    *Enabled* overhead is the wall-time ratio of a traced run over an
    untraced one, best-of at least five rounds each.  Even so the true
    overhead (a few percent) can drown in run-to-run noise and the raw
    difference go negative; the reported fraction is clamped at zero,
    with the raw value and a ``noise_floor`` flag preserved alongside
    so the clamp never hides a measurement.  ``within_budget`` asserts
    the disabled fraction stays under :data:`OBS_OVERHEAD_BUDGET`.
    """
    from repro.obs.trace import NULL_TRACER, Tracer

    # The enabled/disabled delta is small; best-of-N with N >= 5 keeps
    # scheduler noise from swamping it (it still can -- see the clamp).
    rounds = max(rounds, 5)
    world_items = obs_world_items()
    hoiho_off = Hoiho()
    off_seconds = _best_of(lambda: hoiho_off.run(world_items), rounds)

    hoiho_on = Hoiho()

    def traced_run() -> int:
        tracer = Tracer()
        hoiho_on.tracer = tracer
        hoiho_on.run(world_items)
        tracer.close()
        return len(tracer.records)

    spans_per_run = traced_run()
    on_seconds = _best_of(traced_run, rounds)

    # Per-site cost of the no-op path: open + annotate + close one
    # null span, amortised over a large loop.
    loops = 200000

    def null_sites() -> None:
        span_site = NULL_TRACER.span
        for _ in range(loops):
            with span_site("bench", item=1) as span:
                span.set(done=True)

    null_span_seconds = _best_of(null_sites, max(rounds, 3)) / loops
    disabled_overhead = (null_span_seconds * spans_per_run / off_seconds
                         if off_seconds else 0.0)
    enabled_overhead = (on_seconds / off_seconds - 1.0
                        if off_seconds else 0.0)

    return {
        "workload": {
            "world_items": len(world_items),
            "world_suffixes": 16,
            "rounds": rounds,
            "null_span_loops": loops,
        },
        "disabled": {
            "seconds": off_seconds,
            "null_span_seconds": null_span_seconds,
            "spans_per_run": spans_per_run,
            "overhead_fraction": disabled_overhead,
            "budget_fraction": OBS_OVERHEAD_BUDGET,
            "within_budget": disabled_overhead < OBS_OVERHEAD_BUDGET,
        },
        "enabled": {
            "seconds": on_seconds,
            "spans_per_run": spans_per_run,
            # Clamped: a negative measured fraction means the signal
            # sat below timing noise, not that tracing sped us up.
            "overhead_fraction": max(0.0, enabled_overhead),
            "overhead_fraction_raw": enabled_overhead,
            "noise_floor": enabled_overhead < 0.0,
        },
    }


def render_incremental_section(section: Dict[str, object]) -> str:
    """Render an ``incremental`` section (delta-learning report)."""
    workload = section["workload"]
    cold = section["cold"]
    warm = section["warm_repeat"]
    perturbed = section["perturbed"]
    cache = perturbed["suffix_cache"]
    return "\n".join([
        "incremental benchmark (%d suffixes, %d mutated, %s workers)"
        % (workload["suffixes"], workload["perturbed_suffixes"],
           workload.get("parallel_workers", "-")),
        "  cold timeline    : %.3fs" % cold["seconds"],
        "  warm repeat      : %.3fs  speedup %.1fx"
        % (warm["seconds"], warm["speedup"]),
        "  perturbed (~%d%%) : scratch %.3fs  incremental %.3fs  "
        "speedup %.1fx" % (round(100 * workload["perturbed_fraction"]),
                           perturbed["from_scratch_seconds"],
                           perturbed["incremental_seconds"],
                           perturbed["speedup"]),
        "  suffix cache     : %d hit(s), %d miss(es), hit rate %.1f%%  "
        "byte-identical: %s"
        % (cache["hits"], cache["misses"], 100.0 * cache["hit_rate"],
           "yes" if perturbed["identical"] else "NO"),
    ])


def render_obs_section(section: Dict[str, object]) -> str:
    """Render an ``obs`` section (tracer overhead report)."""
    disabled = section["disabled"]
    enabled = section["enabled"]
    verdict = "OK" if disabled["within_budget"] else "OVER BUDGET"
    return "\n".join([
        "observability benchmark (%d spans/run)"
        % disabled["spans_per_run"],
        "  tracing disabled : %.3fs  null-span %.1fns/site  "
        "overhead %.4f%% of run  [%s, budget %.1f%%]"
        % (disabled["seconds"],
           disabled["null_span_seconds"] * 1e9,
           100.0 * disabled["overhead_fraction"], verdict,
           100.0 * disabled["budget_fraction"]),
        "  tracing enabled  : %.3fs  overhead %.1f%% of run"
        % (enabled["seconds"], 100.0 * enabled["overhead_fraction"]),
    ])


def render_obs_window_section(section: Dict[str, object]) -> str:
    """Render an ``obs_window`` section (windowed-telemetry report)."""
    access = section["access_log"]
    window = section["window"]
    verdict = "OK" if section["within_budget"] else "OVER BUDGET"
    return "\n".join([
        "obs-window benchmark (request %.0fus baseline)"
        % (1e6 * section["request_seconds"]),
        "  access log line  : %.1fus enqueue (deferred %.1fus, sync "
        "%.1fus)  %.3f%% of a request"
        % (1e6 * access["line_seconds"],
           1e6 * access.get("drain_line_seconds", 0.0),
           1e6 * access.get("sync_line_seconds", 0.0),
           100.0 * access["fraction_of_request"]),
        "  window fold      : %.0fus/record  %.3f%% of each %.0fs "
        "interval" % (1e6 * window["record_seconds"],
                      100.0 * window["fraction_per_second"],
                      section["workload"]["flush_interval_seconds"]),
        "  combined         : %.3f%% of the hot path  [%s, budget "
        "%.1f%%]" % (100.0 * section["overhead_fraction"], verdict,
                     100.0 * section["budget_fraction"]),
    ])


def render_http_section(section: Dict[str, object]) -> str:
    """Render an ``http`` section (network-serving report)."""
    workload = section["workload"]
    single = section["closed_single"]
    batch = section["closed_batch"]
    open_loop = section["open"]
    return "\n".join([
        "http benchmark (%d workers, %d Zipf hostnames, "
        "fingerprint %s...)"
        % (workload["workers"], workload["zipf_hostnames"],
           workload["workload_fingerprint"][:12]),
        "  closed single    : %.0f req/s  p50 %.2fms  p99 %.2fms  "
        "(%d conns, %d errors)"
        % (single["throughput_rps"], 1e3 * single["latency_p50_s"],
           1e3 * single["latency_p99_s"], single["concurrency"],
           single["errors"]),
        "  closed batch     : %.0f req/s  %.0f hostnames/s  "
        "p50 %.2fms  (batch=%d, %d errors)"
        % (batch["throughput_rps"], batch["hostnames_per_s"],
           1e3 * batch["latency_p50_s"], batch["batch_size"],
           batch["errors"]),
        "  open @ %.0f/s     : %.0f req/s  p50 %.2fms  p99 %.2fms  "
        "(%d errors)"
        % (open_loop["rate"], open_loop["throughput_rps"],
           1e3 * open_loop["latency_p50_s"],
           1e3 * open_loop["latency_p99_s"], open_loop["errors"]),
        "  graceful drain   : exit code %s"
        % section.get("drain_exit_code", "-"),
    ])


def render_shadow_section(section: Dict[str, object]) -> str:
    """Render a ``shadow`` section (dual-annotation report)."""
    workload = section["workload"]
    overhead = section["overhead"]
    ledger = section["ledger"]
    observed = ledger["observed"]
    verdict = "OK" if overhead["within_budget"] else "OVER BUDGET"
    return "\n".join([
        "shadow benchmark (%d conventions, %d Zipf hostnames)"
        % (workload["conventions"], workload["zipf_hostnames"]),
        "  dual annotation  : single %.3fs  dual %.3fs  overhead "
        "%.2fx  [%s, budget %.1fx]"
        % (overhead["single_seconds"], overhead["dual_seconds"],
           overhead["overhead_ratio"], verdict,
           overhead["budget_ratio"]),
        "  divergence ledger: agree %d  p-only %d  c-only %d  "
        "conflict %d  exact: %s  primary-identical: %s"
        % (observed["agree"], observed["primary_only"],
           observed["candidate_only"], observed["conflict"],
           "yes" if ledger["exact"] else "NO",
           "yes" if ledger["primary_identical"] else "NO"),
    ])


def render_serve_section(section: Dict[str, object]) -> str:
    """Render a ``serve`` section (also used by ``serve-stats``).

    ``memo`` and ``bulk`` lines render only when present: a ``dispatch``
    refresh of a pre-v5 file has no memo kernel yet, and a section
    written by ``dispatch`` alone has no bulk numbers.
    """
    workload = section["workload"]
    linear = section["linear_apply"]
    dispatch = section["dispatch"]
    lines = [
        "serve benchmark (%d conventions, %d hostnames, %s workers)"
        % (workload["conventions"], workload["hostnames"],
           workload.get("parallel_workers", "-")),
        "  linear apply     : %.3fs  (%.0f hostnames/s)"
        % (linear["seconds"], linear["hostnames_per_second"]),
        "  trie dispatch    : cold %.3fs  warm %.3fs  "
        "(%.0f hostnames/s warm)  %.1fx vs linear"
        % (dispatch["cold_seconds"], dispatch["warm_seconds"],
           dispatch["warm_hostnames_per_second"],
           dispatch["speedup_vs_linear"]),
    ]
    memo = section.get("memo")
    if memo:
        lines.append(
            "  zipf memo        : uncached %.3fs  warm %.3fs  "
            "(%.0f hostnames/s warm)  %.1fx  hit rate %.1f%%"
            % (memo["uncached_seconds"], memo["warm_seconds"],
               memo["warm_hostnames_per_second"], memo["memo_speedup"],
               100.0 * memo["hit_rate"]))
    bulk = section.get("bulk")
    if bulk:
        lines.append(
            "  bulk streaming   : serial %.3fs  parallel %.3fs  %s"
            % (bulk["serial_seconds"], bulk["parallel_seconds"],
               _speedup(bulk["parallel_speedup"],
                        bulk.get("parallel_workers", "?"))))
    return "\n".join(lines)




def _fanned_out(workers: object) -> bool:
    """Whether a fan-out ratio was measured: with fewer than two
    workers it reflects the host, not the fan-out."""
    return isinstance(workers, int) and workers >= 2


def _speedup(ratio: float, workers: object) -> str:
    """A fan-out speedup as rendered, or "not measured"."""
    if _fanned_out(workers):
        return "speedup %.2fx (%d workers)" % (ratio, workers)
    return "speedup not measured (%s workers)" % workers


def render_learner_section(report: Dict[str, object]) -> str:
    """Render the report's top-level learner keys (empty if absent)."""
    lines = []
    if "suffix_learn" in report:
        suffix = report["suffix_learn"]
        nc = report["evaluate_nc"]
        run = report["run_datasets"]
        workers = report.get("workload", {}).get("parallel_workers", "?")
        lines += [
            "  learn one suffix : cached %.4fs  uncached %.4fs  "
            "speedup %.2fx" % (suffix["cached_seconds"],
                               suffix["uncached_seconds"],
                               suffix["cache_speedup"]),
            "  evaluate_nc set  : cold %.6fs  warm %.6fs  speedup %.1fx"
            % (nc["cold_seconds"], nc["warm_seconds"], nc["warm_speedup"]),
            "  run_datasets     : serial %.3fs  parallel %.3fs  %s"
            % (run["serial_seconds"], run["parallel_seconds"],
               _speedup(run["parallel_speedup"], workers)),
        ]
    cache = report.get("cache")
    if cache:
        lines.append("  cache counters   : %d vectors built, %d served, "
                     "%d re.match calls, hit rate %.1f%%"
                     % (cache.get("vectors_built", 0),
                        cache.get("vector_hits", 0),
                        cache.get("match_calls", 0),
                        100.0 * cache.get("hit_rate", 0.0)))
    return "\n".join(lines)


def render_pipeline_section(section: Dict[str, object]) -> str:
    """Render a ``pipeline`` section (timeline, routing, store)."""
    timeline = section["timeline"]
    routing = section["routing"]
    store = section["store"]
    return "\n".join([
        "pipeline benchmark (%d-set timeline)"
        % section["workload"]["training_sets"],
        "  build_timeline   : serial %.3fs  parallel %.3fs  %s"
        % (timeline["serial_seconds"], timeline["parallel_seconds"],
           _speedup(timeline["parallel_speedup"],
                    timeline.get("parallel_workers", "?"))),
        "  routing model    : eager %.4fs  lazy first path %.4fs  "
        "speedup %.1fx" % (routing["eager_seconds"],
                           routing["lazy_first_path_seconds"],
                           routing["lazy_speedup"]),
        "  artifact store   : cold %.3fs  warm %.3fs  speedup %.1fx"
        % (store["cold_seconds"], store["warm_seconds"],
           store["warm_speedup"]),
    ])


def render_report(report: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a report payload."""
    lines = ["learner benchmark (v%s)" % report.get("version", "?")]
    for name in FULL_RUN:
        section = SECTIONS[name]
        payload = report if section.key is None else report.get(section.key)
        text = section.render(payload) if payload else ""
        if text:
            lines.append(text)
    return "\n".join(lines)


class Section(NamedTuple):
    """One slice of ``BENCH_learner.json``: how to measure it, how to
    render it, and where its numbers live in the report."""

    #: ``run(rounds, jobs)`` returns the section's fresh numbers.
    run: Callable[[int, Optional[int]], Dict[str, object]]
    #: Best-of rounds when ``--rounds`` is not given.
    rounds: int
    render: Callable[[Dict[str, object]], str]
    #: Report key the numbers replace; ``None`` merges them into the
    #: top level.
    key: Optional[str]
    #: Dotted paths under ``key`` that a refresh carries over from the
    #: previous report instead of replacing.
    keep: Tuple[str, ...] = ()


#: Every report section, in render order.  ``dispatch`` re-measures the
#: serve section's single-core kernels and keeps its fan-out numbers.
#: Only the section's runner knows what a round is: ``obs`` and
#: ``obs_window`` clamp to their noise-safe minimum, and ``http`` is
#: sized by its load generator's request counts (its two pre-fork
#: workers are the runner's default).
SECTIONS: Dict[str, Section] = {
    "learner": Section(run_bench, 5, render_learner_section, None),
    "pipeline": Section(run_pipeline_bench, 2, render_pipeline_section,
                        "pipeline"),
    "serve": Section(run_serve_bench, 3, render_serve_section, "serve"),
    "dispatch": Section(run_dispatch_bench, 3, render_serve_section,
                        "serve", keep=("bulk", "workload.parallel_workers")),
    "obs": Section(lambda rounds, jobs: run_obs_bench(rounds), 5,
                   render_obs_section, "obs"),
    "incremental": Section(run_incremental_bench, 2,
                           render_incremental_section, "incremental"),
    "http": Section(lambda rounds, jobs: run_http_bench(), 1,
                    render_http_section, "http"),
    "shadow": Section(lambda rounds, jobs: run_shadow_bench(rounds), 5,
                      render_shadow_section, "shadow"),
    "obs_window": Section(lambda rounds, jobs: run_obs_window_bench(rounds),
                          3, render_obs_window_section, "obs_window"),
}

#: A full run, and the render order: every report key once (``serve``
#: already measures what ``dispatch`` does).
FULL_RUN = tuple(name for name in SECTIONS if name != "dispatch")

_MISSING = object()


def _lookup(report: Dict[str, object], path: str) -> object:
    """The value at dotted ``path`` in ``report``, or ``_MISSING``."""
    value: object = report
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return _MISSING
        value = value[part]
    return value


def write_sections(path: str = "BENCH_learner.json",
                   names: Optional[Sequence[str]] = None,
                   rounds: Optional[int] = None,
                   jobs: Optional[int] = None) -> Dict[str, object]:
    """Measure the named sections (default :data:`FULL_RUN`) and merge
    them into the report at ``path``; returns the report.

    ``path`` is read if present (started fresh otherwise), so every
    section not named keeps its previous numbers.  ``rounds`` overrides
    each section's default; ``jobs`` reaches the sections that fan out.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = {}
    for name in names or FULL_RUN:
        section = SECTIONS[name]
        fresh = section.run(section.rounds if rounds is None else rounds,
                            jobs)
        if section.key is None:
            report.update(fresh)
            continue
        previous = report.get(section.key) or {}
        for kept in section.keep:
            value = _lookup(previous, kept)
            if value is not _MISSING:
                *parents, leaf = kept.split(".")
                target = fresh
                for part in parents:
                    target = target.setdefault(part, {})
                target[leaf] = value
        report[section.key] = fresh
    report["version"] = BENCH_VERSION
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


class Key(str):
    """A floor bound read from another report path."""

    __repr__ = str.__str__


#: Each fan-out ratio and the worker count it was measured with.  Below
#: two workers the ratio is "not measured": a check passes it, except a
#: live check on a host with two or more CPUs, where it fails.
FANOUT_WORKERS = {
    "run_datasets.parallel_speedup": "workload.parallel_workers",
    "pipeline.timeline.parallel_speedup":
        "pipeline.timeline.parallel_workers",
    "serve.bulk.parallel_speedup": "serve.bulk.parallel_workers",
}

#: Every acceptance floor: (report path, comparison, live bound,
#: committed bound).  A live bound applies to a section measured in the
#: same invocation (e.g. one CI round); a committed bound to the
#: checked-in ``BENCH_learner.json``.  ``None`` skips the row in that
#: mode; a missing key fails it.
FLOORS = [
    ("version", "==", None, BENCH_VERSION),
    ("suffix_learn.cache_speedup", ">=", None, 2.0),
    ("pipeline.store.warm_speedup", ">", None, 2.0),
    # Dispatch is floored absolutely: the linear path runs the
    # label-walk PSL, so the ratio no longer isolates dispatch.
    ("serve.dispatch.warm_hostnames_per_second", ">=", 250_000, None),
    ("serve.dispatch.speedup_vs_linear", ">", 1.0, 1.0),
    ("serve.memo.memo_speedup", ">=", 1.5, None),
    ("serve.memo.warm_hostnames_per_second", ">=", 500_000, None),
    ("serve.memo.warm_hostnames_per_second", ">", None, 1_000_000),
    ("serve.bulk.parallel_speedup", ">=", 1.5, None),
    ("obs.disabled.within_budget", "==", True, None),
    ("obs.disabled.overhead_fraction", "<", OBS_OVERHEAD_BUDGET, None),
    ("incremental.workload.parallel_workers", ">=", 1, 1),
    ("incremental.warm_repeat.speedup", ">=", 5.0, 5.0),
    ("incremental.perturbed.suffix_cache.hits", ">=", None, 0),
    ("incremental.perturbed.suffix_cache.misses", ">=", None, 0),
    ("incremental.perturbed.suffix_cache.hit_rate", ">=", 0.8, 0.8),
    ("incremental.perturbed.identical", "==", True, True),
    ("http.workload.workload_fingerprint", "!=", None, ""),
    ("http.closed_single.errors", "==", None, 0),
    ("http.closed_batch.errors", "==", None, 0),
    ("http.closed_single.throughput_rps", ">=", None, 100.0),
    ("http.closed_batch.hostnames_per_s", ">=", None, 10_000.0),
    ("http.drain_exit_code", "==", None, 0),
    ("shadow.ledger.exact", "==", True, True),
    ("shadow.ledger.primary_identical", "==", True, True),
    ("shadow.ledger.observed", "==", None, Key("shadow.ledger.expected")),
    ("shadow.overhead.overhead_ratio", "<=", 3.0, SHADOW_OVERHEAD_BUDGET),
    ("shadow.overhead.within_budget", "==", None, True),
    ("obs_window.within_budget", "==", True, True),
    ("obs_window.overhead_fraction", "<", OBS_WINDOW_OVERHEAD_BUDGET,
     None),
    ("obs_window.budget_fraction", "==", None, OBS_WINDOW_OVERHEAD_BUDGET),
]

_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
            "<": operator.lt, "==": operator.eq, "!=": operator.ne}


def _covers(section: Section, path: str) -> bool:
    """Whether refreshing ``section`` rewrites report ``path``."""
    top = path.split(".")[0]
    if section.key is None:
        return top not in {other.key for other in SECTIONS.values()}
    return top == section.key and not any(
        (path + ".").startswith("%s.%s." % (section.key, kept))
        for kept in section.keep)


def check_floors(report: Dict[str, object],
                 live: Optional[Sequence[str]] = None,
                 ) -> List[Tuple[bool, str]]:
    """Evaluate :data:`FLOORS` against ``report``: one ``(ok, line)``
    per applicable row.

    With ``live`` -- the section names measured in this invocation --
    the rows those sections cover apply at their live bounds; without
    it every row applies at its committed bound.
    """
    results = []
    for path, op, live_bound, committed_bound in FLOORS:
        bound = committed_bound if live is None else live_bound
        if bound is None or (live is not None and not any(
                _covers(SECTIONS[name], path) for name in live)):
            continue
        label = "%s %s %r" % (path, op, bound)
        value = _lookup(report, path)
        target = _lookup(report, bound) if isinstance(bound, Key) else bound
        fanout = FANOUT_WORKERS.get(path)
        workers = _lookup(report, fanout) if fanout else None
        if value is _MISSING or target is _MISSING:
            ok, outcome = False, "missing"
        elif fanout and not _fanned_out(workers):
            ok = live is None or default_workers() < 2
            outcome = "not measured (%s workers)" % (
                "?" if workers is _MISSING else workers)
        else:
            ok = _COMPARE[op](value, target)
            outcome = round(value, 4) if isinstance(value, float) \
                else value
        results.append((ok, "%s  %s: %s"
                        % ("ok  " if ok else "FAIL", label, outcome)))
    return results
