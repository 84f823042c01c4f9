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

from repro.obs.logjson import (
    JsonLogger,
    NULL_LOG,
    new_request_id,
    open_json_logger,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BOUNDS,
    DEFAULT_PERCENTILES,
    Histogram,
    LabelledCounter,
    MetricsRegistry,
    merge_outcomes,
    render_snapshot,
)
from repro.obs.slo import (
    SloTarget,
    evaluate_history,
    render_slo_report,
)
from repro.obs.timeseries import (
    HistoryStore,
    RollingWindows,
    diff_snapshot,
    history_deltas,
)
from repro.obs.trace import (
    Captured,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    load_trace,
    resilience_to_span,
    retry_to_span,
)

__all__ = [
    "Captured",
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_PERCENTILES",
    "Histogram",
    "HistoryStore",
    "JsonLogger",
    "LabelledCounter",
    "MetricsRegistry",
    "NULL_LOG",
    "NULL_TRACER",
    "NullTracer",
    "RollingWindows",
    "SloTarget",
    "Span",
    "Tracer",
    "diff_snapshot",
    "evaluate_history",
    "history_deltas",
    "load_trace",
    "merge_outcomes",
    "new_request_id",
    "open_json_logger",
    "render_slo_report",
    "render_snapshot",
    "resilience_to_span",
    "retry_to_span",
]
