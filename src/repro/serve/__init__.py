"""``repro.serve`` -- the inference/serving side of the reproduction.

Where :mod:`repro.core` *learns* naming conventions from training
pairs, this package *applies* them at production rates, in four layers:

* :mod:`repro.serve.index` -- :class:`DispatchIndex`, a reversed-label
  suffix trie mapping a hostname to its owning convention's
  pre-compiled :class:`AnnotationPlan` in O(labels), replacing the
  per-hostname public-suffix-list scan of ``HoihoResult.extract``;
  each plan's pattern list is additionally fused -- when provably
  equivalent -- into a single alternation regex so one ``re.match``
  replaces the sequential first-match loop;
* :mod:`repro.serve.memo` -- :class:`AnnotationMemo`, the bounded LRU
  memo fronting dispatch on Zipf-skewed hostname streams;
* :mod:`repro.serve.service` -- :class:`AnnotationService`, the
  embeddable façade: load/warm/reload conventions (JSON or
  :class:`~repro.store.ArtifactStore`), graceful malformed-hostname
  handling, and the one annotation kernel (``annotate_entries``) that
  ``annotate_one`` / ``annotate_batch`` / ``annotate_pairs``, the HTTP
  endpoints and bulk workers all go through;
* :mod:`repro.serve.engine` -- :class:`BulkAnnotator`, chunked
  order-preserving streaming over files/stdin with optional process
  fan-out (byte-identical to serial; packed single-buffer chunk IPC,
  workers holding a fork-inherited warmed service, adaptive chunk
  sizing) and TSV/JSONL sinks;
* :class:`MetricsRegistry` (re-exported from :mod:`repro.obs.metrics`)
  -- live counters, per-suffix extraction counts, and latency
  percentiles;
* :mod:`repro.serve.http` -- the network front-end: a pre-fork
  keep-alive HTTP server (single + batch annotate, ``/metrics``,
  health/readiness, admin hot reload, graceful SIGTERM drain) whose
  workers fork-inherit one warmed service;
* :mod:`repro.serve.loadgen` -- open/closed-loop HTTP load generator
  reporting throughput and latency percentiles;
* :mod:`repro.serve.shadow` -- :class:`ShadowService`, side-by-side
  shadow deployment of a candidate convention set with a per-suffix
  disagreement ledger and a gated promote path (the validate-before-
  trust half of tracking a changing Internet); it overrides only the
  service kernel.

CLI surface: ``repro-hoiho annotate`` (bulk), ``repro-hoiho serve``
(line-oriented stdin/stdout loop), ``repro-hoiho serve-http``
(network server), ``repro-hoiho loadgen`` (load generator),
``repro-hoiho serve-stats`` (metrics/bench rendering); ``repro-hoiho
apply`` is a thin alias of ``annotate``.  See ``docs/SERVING.md``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.engine": (
        "BulkAnnotator", "Checkpoint", "DEFAULT_CHUNK_SIZE", "DeadLetter",
        "SINKS", "jsonl_line", "tsv_line",
    ),
    "repro.serve.http": (
        "AnnotationHTTPServer", "HttpConfig", "ServerProcess", "serve_http",
        "wait_applied", "wait_ready",
    ),
    "repro.serve.index": (
        "AnnotationPlan", "DispatchIndex", "MAX_FUSED_GROUPS", "fuse_patterns",
        "normalize_hostname",
    ),
    "repro.serve.memo": ("ABSENT", "AnnotationMemo", "DEFAULT_MEMO_SIZE"),
    "repro.serve.loadgen": ("LoadGenConfig", "run_loadgen"),
    "repro.obs.metrics": (
        "Counter", "Histogram", "LabelledCounter", "MetricsRegistry",
        "render_snapshot",
    ),
    "repro.serve.service": ("AnnotationService", "iter_hostnames"),
    "repro.serve.shadow": (
        "EXAMPLE_CAP", "ShadowLedger", "ShadowService", "merge_shadow_reports",
        "render_shadow_report", "shadow_report_from_snapshot",
    ),
})
