"""repro.obs: the dependency-free observability core.

One package owns introspection for the whole pipeline:

* :mod:`repro.obs.trace` -- nested spans, JSONL traces, worker span
  capture, and the always-on :data:`NULL_TRACER` no-op;
* :mod:`repro.obs.metrics` -- counters/histograms and the
  :class:`MetricsRegistry` shared by serve, learner, pipeline, store;
* :mod:`repro.obs.timeseries` -- the time axis: exact snapshot deltas
  (:func:`diff_snapshot`), rolling windows, and the persisted
  :class:`HistoryStore`;
* :mod:`repro.obs.logjson` -- structured JSON line logging (server
  diagnostics and the per-request access log);
* :mod:`repro.obs.slo` -- declarative SLO targets evaluated over the
  persisted history (``repro-hoiho slo-report``);
* :mod:`repro.obs.prom` -- Prometheus text exposition of any snapshot;
* :mod:`repro.obs.manifest` -- run manifests and schema validation;
* :mod:`repro.obs.summary` -- the ``trace summary`` renderer.

See docs/OBSERVABILITY.md for the span model and file formats.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.logjson": (
        "JsonLogger", "NULL_LOG", "new_request_id", "open_json_logger",
    ),
    "repro.obs.metrics": (
        "Counter", "DEFAULT_LATENCY_BOUNDS", "DEFAULT_PERCENTILES",
        "Histogram", "LabelledCounter", "MetricsRegistry", "merge_outcomes",
        "render_snapshot",
    ),
    "repro.obs.slo": ("SloTarget", "evaluate_history", "render_slo_report"),
    "repro.obs.timeseries": (
        "HistoryStore", "RollingWindows", "diff_snapshot", "history_deltas",
    ),
    "repro.obs.trace": (
        "Captured", "NULL_TRACER", "NullTracer", "Span", "Tracer",
        "load_trace", "resilience_to_span", "retry_to_span",
    ),
})
