"""``repro.serve.http`` -- the network-facing annotation server.

Promotes the stdin/stdout serving loop to a real concurrent network
service over the existing :class:`~repro.serve.service.AnnotationService`
-- stdlib only (``http.server`` + ``socket`` + ``os.fork``), because the
hot path is the service's annotation kernel and the transport just has
to stay out of its way.

Endpoints (JSON in/out, HTTP/1.1 keep-alive; the routes are
:data:`_ROUTES`):

* ``POST /annotate`` (``{"hostname": ...}`` -> ``{"hostname", "asn"}``)
  and ``POST /annotate/batch`` (``{"hostnames": [...]}`` ->
  ``{"count", "asns"}``), result-identical to the service's kernel;
* ``GET /metrics`` -- Prometheus text of the *merged* per-worker
  registries (see below);
* ``GET /healthz`` -- 200 while the worker can answer, draining too;
  ``GET /readyz`` -- 503 once draining (the load-balancer signal);
* ``GET /admin/status`` -- uptime, inflight, fleet-merged windowed
  health (:mod:`repro.obs.timeseries`; what ``repro-hoiho watch``
  renders), and the op log's ``generation`` next to every worker's
  ``applied_generation``;
* ``GET /admin/shadow/report`` -- the merged per-suffix disagreement
  ledger of :mod:`repro.serve.shadow`;
* ``POST /admin/reload``, ``POST /admin/shadow`` and ``POST
  /admin/shadow/promote`` -- the admin ops: re-read the configured
  conventions, (re)load the configured ``--shadow`` candidate, and
  swap the candidate in as primary (gated on the merged report by
  ``--promote-threshold``).  Each swap is atomic through the
  service's ``reload_*`` machinery; in-flight requests keep the old
  index.

The admin ops are the rows of :data:`ADMIN_OPS` and reach every worker
one way: the endpoint appends the op to the :class:`OpLog`
(generation-numbered files in the shared metrics directory pre-fork,
a list with one process) and applies it on its own worker; every
sibling's flush loop applies each op above its ``applied_generation``
in order and stamps that generation into its flushed snapshot.  The
reply carries the op's ``generation``: 200 once every worker has
applied it (always, with one process), 202 while siblings still have
to, 500 when it failed on the answering worker.

Protection: request bodies above ``max_body`` are rejected with 413
(and the connection closed -- the body is never read); when more than
``max_inflight`` annotation requests are already executing in a worker,
new ones get 429 + ``Retry-After`` (bounded in-flight budget =
backpressure instead of collapse).  Handler exceptions never kill a
worker: anything unexpected becomes a 500 JSON response.

The wire: :class:`AnnotationHandler` reads each request itself, not
through the stdlib's ``email``-based header parse, and answers every
head it cannot read with a counted JSON error.

Scale-out is a **pre-fork worker pool**: the parent builds and warms
the service once, then forks ``workers`` processes that inherit the
fully-built fused :class:`~repro.serve.index.DispatchIndex` (the PR-6
fork-inheritance property -- no per-worker JSON re-parse, no duplicate
compile work).  Where ``SO_REUSEPORT`` exists the parent *binds without
listening* to reserve the port (resolving ``port=0`` once) and each
worker opens its own listening socket on it, giving kernel-level accept
balancing; elsewhere the workers share the parent's inherited listener.

Metrics aggregation: after ``fork`` each worker's registry diverges, so
workers periodically flush ``service.stats()`` snapshots to a shared
metrics directory (atomic ``os.replace``), and ``GET /metrics`` merges
every worker's latest snapshot through
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` -- one
scrape, fleet-wide counters (staleness bounded by ``flush_interval``).

Shutdown: SIGTERM/SIGINT starts a **graceful drain** -- ``/readyz``
flips to 503, responses carry ``Connection: close``, the worker keeps
serving (so ``/healthz`` stays green) for ``drain_grace`` seconds and
until in-flight annotation requests hit zero (bounded by
``drain_timeout``), then stops accepting, flushes a final metrics
snapshot, and exits 0.  The parent forwards SIGTERM/SIGINT, reaps
every worker, merges their final snapshots, and writes ``metrics_out``.
SIGHUP submits a ``reload`` op (pre-fork, the parent appends it to the
log and the workers ignore SIGHUP).

``ServerProcess`` wraps the whole tree (parent + workers) in one child
process for tests, benchmarks, and the load generator
(:mod:`repro.serve.loadgen`).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterator, List, NamedTuple, \
    Optional, Tuple, Union

from repro.obs.logjson import JsonLogger, NULL_LOG, new_request_id, \
    open_json_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import to_prometheus
from repro.obs.timeseries import HistoryStore, RollingWindows
from repro.obs.trace import Tracer
from repro.serve.memo import DEFAULT_MEMO_SIZE
from repro.serve.service import AnnotationService
from repro.serve.shadow import ShadowService, merge_shadow_reports, \
    merge_shadow_snapshots, shadow_report_from_snapshot

#: Default request-body ceiling (bytes): 8 MiB fits ~100k hostnames.
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: Default bound on concurrently executing annotation requests/worker.
DEFAULT_MAX_INFLIGHT = 64

#: Prometheus text exposition content type.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Sentinel for "the 4xx reply already went out" -- distinct from any
#: parsed JSON value (a body of literal ``null`` parses to ``None``).
_READ_ERROR = object()

#: The stdlib reader's limits (``http.client``): bytes in the request
#: line or one header line, and lines in the header block counting the
#: blank line that ends it.
MAX_LINE = 65536
MAX_HEAD_LINES = 100

#: ``HTTP/major.minor``: one dot, ASCII digits, at most ten of each.
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})\Z")

#: One header line: a name of printable ASCII without the colon, the
#: colon, optional blanks, then a value holding no CR or LF before the
#: line end.  What the stdlib's ``email`` parser reads as a field;
#: anything else (a folded continuation, a line with no colon, a
#: space in the name, a bare CR) is a 400 here.
_FIELD = re.compile(r"([\x21-\x39\x3b-\x7e]+):[ \t]*([^\r\n]*)\r?\n?\Z")

#: The methods some route answers; any other is 501.
_METHODS = ("GET", "POST")

#: Status lines for every code ``HTTPStatus`` names.
_STATUS_LINES = {status.value: b"HTTP/1.1 %d %s\r\n"
                 % (status.value, status.phrase.encode("latin-1"))
                 for status in HTTPStatus}

#: The fixed start of every response head after the status line; the
#: ``Server`` value is the one ``BaseHTTPRequestHandler`` would send.
_HEAD = ("Server: repro-serve-http/1.0 %s\r\nDate: %%s\r\n"
         "Content-Type: %%s\r\nContent-Length: %%d\r\n"
         "X-Request-Id: %%s\r\n" % BaseHTTPRequestHandler.sys_version)


@dataclass
class HttpConfig:
    """Everything ``serve-http`` needs to run a server tree."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    max_body: int = DEFAULT_MAX_BODY
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    #: Seconds a draining worker keeps accepting (readyz 503, healthz
    #: 200) so load balancers can observe the drain before the listener
    #: closes.
    drain_grace: float = 0.0
    #: Hard ceiling on the whole drain (grace + in-flight wait).
    drain_timeout: float = 10.0
    #: Worker metrics snapshots older than this may be re-flushed.
    flush_interval: float = 1.0
    #: Conventions JSON file the ``reload`` op re-reads.
    conventions: Optional[str] = None
    #: Candidate conventions JSON file the ``shadow_load`` op re-reads;
    #: also loaded at startup when set.
    shadow: Optional[str] = None
    #: Refuse ``/admin/shadow/promote`` while the merged disagreement
    #: fraction exceeds this (``None`` = no gate).
    promote_threshold: Optional[float] = None
    #: Where the parent writes the merged snapshot after shutdown.
    metrics_out: Optional[str] = None
    #: Shared snapshot directory (default: a private temp dir).
    metrics_dir: Optional[str] = None
    #: Force/forbid per-worker ``SO_REUSEPORT`` sockets (None = auto).
    reuse_port: Optional[bool] = None
    backlog: int = 128
    #: Structured JSON access log: a path (workers append; O_APPEND +
    #: one-write-per-line keeps lines whole across processes), ``"-"``
    #: for stderr, ``None`` to disable.
    access_log: Optional[str] = None
    #: Trace 1-in-N requests as spans to ``trace_out`` (0 = off).
    trace_sample: int = 0
    #: JSONL sink for sampled request spans.
    trace_out: Optional[str] = None
    #: JSONL history of merged snapshots (``HistoryStore``); the
    #: parent appends every ``history_interval`` seconds and once at
    #: shutdown, so even a short run leaves one comparable entry.
    history: Optional[str] = None
    history_interval: float = 10.0
    #: Rolling-window geometry behind ``/admin/status`` (aligned
    #: windows of ``window_seconds``, newest ``window_count`` kept).
    window_seconds: float = 10.0
    window_count: int = 60

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical settings."""
        if self.workers < 1:
            raise ValueError("--workers must be >= 1, got %d" % self.workers)
        if not 0 <= self.port <= 65535:
            raise ValueError("--port must be 0..65535, got %d" % self.port)
        if self.max_body < 1:
            raise ValueError("--max-body must be >= 1 byte, got %d"
                             % self.max_body)
        if self.max_inflight < 1:
            raise ValueError("--max-inflight must be >= 1, got %d"
                             % self.max_inflight)
        if self.drain_grace < 0 or self.drain_timeout < 0:
            raise ValueError("drain timings must be >= 0")
        if self.promote_threshold is not None \
                and not 0.0 <= self.promote_threshold <= 1.0:
            raise ValueError(
                "--promote-threshold is a fraction in [0, 1], got %r"
                % self.promote_threshold)
        if self.trace_sample < 0:
            raise ValueError("--trace-sample must be >= 0, got %d"
                             % self.trace_sample)
        if self.trace_sample > 0 and not self.trace_out:
            raise ValueError("--trace-sample needs --trace-out (the "
                             "JSONL sink for sampled request spans)")
        if self.history_interval <= 0:
            raise ValueError("history interval must be > 0 seconds")
        if self.window_seconds <= 0 or self.window_count < 1:
            raise ValueError("window geometry must be positive")


def create_listener(host: str, port: int, reuse_port: bool = False,
                    backlog: int = 128) -> socket.socket:
    """A bound, listening TCP socket (``SO_REUSEPORT`` optional)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuse_port:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


def _reserve_port(host: str, port: int) -> socket.socket:
    """Bind (without listening) to reserve ``port`` for the workers.

    A bound-but-not-listening socket never receives connections -- TCP
    lookup only considers listeners -- so the parent can hold this open
    for the server's lifetime while every worker's own ``SO_REUSEPORT``
    listener takes the traffic.  Binding to port 0 here resolves the
    ephemeral port exactly once, before any worker exists.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


class MetricsDir:
    """The shared per-worker snapshot directory behind ``/metrics``.

    Each worker owns one file (``worker-<id>.json``), written atomically
    (temp file + ``os.replace``) so a concurrent reader never sees a
    torn snapshot.  Extra keys in a snapshot (``memo``, ``fused_plans``
    from ``AnnotationService.stats()``) ride along untouched;
    ``merge_snapshot`` ignores them.  ``flush`` stamps ``ts`` (epoch
    seconds), ``worker_id`` and ``applied_generation`` into every file,
    so scrape staleness (:meth:`ages`) and each worker's place in the
    :class:`OpLog` are observed, not inferred.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def flush(self, worker_id: int, snapshot: Dict[str, object],
              applied_generation: int = 0) -> None:
        """Atomically publish ``worker_id``'s current snapshot."""
        snapshot = dict(snapshot)
        snapshot["ts"] = time.time()
        snapshot["worker_id"] = worker_id
        snapshot["applied_generation"] = applied_generation
        target = os.path.join(self.path, "worker-%d.json" % worker_id)
        fd, tmp = tempfile.mkstemp(prefix=".worker-%d." % worker_id,
                                   dir=self.path)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, sort_keys=True)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def snapshots(self) -> Iterator[Dict[str, object]]:
        """Every worker's latest snapshot (unreadable files skipped)."""
        try:
            names = sorted(os.listdir(self.path))
        except OSError:
            return
        for name in names:
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.path, name),
                          encoding="utf-8") as handle:
                    yield json.load(handle)
            except (OSError, ValueError):
                continue  # mid-replace or already gone

    def merged(self) -> Dict[str, object]:
        """One registry snapshot folding every worker's together."""
        registry = MetricsRegistry()
        for snapshot in self.snapshots():
            registry.merge_snapshot(snapshot)
        return registry.snapshot()

    def stamped(self, key: str) -> Dict[int, object]:
        """The stamp ``key`` of every worker's snapshot, by worker id
        (files without it, or unreadable, are left out)."""
        return {int(snapshot["worker_id"]): snapshot[key]  # type: ignore
                for snapshot in self.snapshots()
                if None not in (snapshot.get(key), snapshot.get("worker_id"))}

    def ages(self, now: Optional[float] = None) -> Dict[int, float]:
        """Per-worker snapshot age in seconds, from the stamped ``ts``."""
        now = time.time() if now is None else now
        return {worker: max(0.0, now - float(ts))  # type: ignore[arg-type]
                for worker, ts in self.stamped("ts").items()}


class OpLog:
    """The admin ops every worker applies, numbered 1, 2, ... in order.

    With one process it is a list.  Pre-fork it is files in the shared
    metrics directory, ``op-<generation>.json`` holding ``{"generation",
    "op", "ts"}``, each hard-linked whole from a temp file to the next
    number; a writer that finds it taken (``FileExistsError``) tries the
    one after.  So concurrent writers get distinct generations with no
    lock, and ``n`` exists only once ``n - 1`` does: readers walk
    forward until a number is missing."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._ops: List[str] = []
        self._lock = threading.Lock()

    def append(self, op: str) -> int:
        """Record ``op`` as the next generation and return it."""
        if self.path is None:
            with self._lock:
                self._ops.append(op)
                return len(self._ops)
        generation = self.head()
        while True:
            generation += 1
            fd, tmp = tempfile.mkstemp(prefix=".op-", dir=self.path)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump({"generation": generation, "op": op,
                               "ts": time.time()}, handle)
                os.link(tmp, os.path.join(self.path,
                                          "op-%d.json" % generation))
                return generation
            except FileExistsError:
                continue
            finally:
                os.unlink(tmp)

    def entries(self, after: int) -> List[Tuple[int, str]]:
        """Every ``(generation, op)`` above generation ``after``."""
        if self.path is None:  # a slice is atomic
            return list(enumerate(self._ops[after:], after + 1))
        found: List[Tuple[int, str]] = []
        while True:
            generation = after + len(found) + 1
            try:
                with open(os.path.join(self.path, "op-%d.json" % generation),
                          encoding="utf-8") as handle:
                    found.append((generation, json.load(handle)["op"]))
            except FileNotFoundError:
                return found

    def head(self) -> int:
        """The newest generation; 0 for an empty log."""
        return len(self.entries(0))


class AdminOp(NamedTuple):
    """One admin op: ``action`` returns the plan count it installed, or
    raises and leaves the old set live.  Tests, history and ``/metrics``
    read the counter and event names.  A success reply carries ``{done:
    True, count: <plans>}``; replies and events name the file read."""

    action: Callable[["AnnotationHTTPServer"], int]
    counter: str
    errors: str
    event: str
    done: str
    count: str
    context: Callable[[HttpConfig], Dict[str, object]]


def _shadow_of(server: "AnnotationHTTPServer") -> ShadowService:
    if not isinstance(server.service, ShadowService):
        raise LookupError("server is not running in shadow mode; "
                          "restart with --shadow")
    return server.service


#: Every admin op, by the name the :class:`OpLog` records.
ADMIN_OPS: Dict[str, AdminOp] = {
    "reload": AdminOp(
        lambda server: server.service.reload_json_file(
            server.config.conventions),
        "reloads", "reload_errors", "reload_failed", "reloaded",
        "suffixes", lambda config: {"conventions": config.conventions}),
    "shadow_load": AdminOp(
        lambda server: _shadow_of(server).load_candidate_file(
            server.config.shadow),
        "shadow_loads", "shadow_load_errors", "shadow_load_failed",
        "shadow", "candidate_suffixes",
        lambda config: {"candidate": config.shadow}),
    "promote": AdminOp(
        lambda server: _shadow_of(server).promote(),
        "shadow_promotes", "shadow_promote_errors",
        "shadow_promote_failed", "promoted", "suffixes",
        lambda config: {}),
}


class AnnotationHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one annotation service.

    One instance per worker process (and the whole server when
    ``workers=1``).  Connections get a thread each (keep-alive held
    across requests); annotation work is bounded by the in-flight
    budget, not the thread count.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: AnnotationService, config: HttpConfig,
                 sock: Optional[socket.socket] = None,
                 worker_id: int = 0,
                 metrics_dir: Optional[MetricsDir] = None) -> None:
        self.service = service
        self.config = config
        self.worker_id = worker_id
        self.metrics_dir = metrics_dir
        self.op_log = OpLog(metrics_dir and metrics_dir.path)
        #: The newest op applied here; a forked worker starts at the
        #: head at fork time, so a reused metrics dir is not replayed.
        self.applied_generation = self.op_log.head()
        self._apply_lock = threading.RLock()  # serialises ``reconcile``
        self.draining = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        #: Serialises the HTTP accounting triple (``http_requests``,
        #: ``http_responses``, ``http_request_seconds``) and every
        #: snapshot this server takes (see :mod:`repro.obs.metrics`).
        self._accounting_lock = threading.Lock()
        #: ``(epoch second, Date header value)``, replaced whole.
        self._date: Tuple[int, str] = (0, "")
        self._last_flush = 0.0
        self.started_monotonic = time.monotonic()
        self.started_ts = time.time()
        #: Windowed telemetry behind ``/admin/status``; fed the fleet's
        #: merged snapshot (or the live stats when single-process) by
        #: the flush loop and on-demand by the status endpoint.
        self.windows = RollingWindows(config.window_seconds,
                                      config.window_count)
        # Baseline at boot: the first real sample then diffs against
        # zero, so requests served before the first flush-loop pass
        # still land in a window (http_* counters start at 0 here).
        self.windows.record({})
        #: Structured diagnostics (replaces print-to-stderr); each
        #: forked worker rebuilds it with its own ``worker_id``.
        self.log = JsonLogger(worker_id=worker_id)
        # Buffered: the per-request cost is an enqueue; a drainer
        # thread batches the JSON lines out (see repro.obs.logjson).
        self.access_log = open_json_logger(config.access_log,
                                           worker_id=worker_id,
                                           buffered=True)
        self._tracer: Optional[Tracer] = None
        self._trace_lock = threading.Lock()
        self._trace_seq = 0
        if config.trace_sample > 0 and config.trace_out:
            # Append mode: in pre-fork mode every worker writes spans
            # to the same file, and one-write-per-record keeps the
            # JSONL whole (same discipline as the access log).
            self._tracer = Tracer(
                stream=open(config.trace_out, "a", encoding="utf-8"))
        #: HistoryStore in single-process mode (the pre-fork parent
        #: owns the history instead -- see ``_serve_prefork``).
        self.history: Optional[HistoryStore] = None
        address = (config.host, config.port)
        super().__init__(address, AnnotationHandler,
                         bind_and_activate=False)
        if sock is not None:
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()
            self.server_name = config.host
            self.server_port = self.server_address[1]
        else:
            self.server_bind()
            self.server_activate()

    # -- in-flight budget --------------------------------------------------

    def try_begin_request(self) -> bool:
        """Admit one annotation request, or refuse at the budget."""
        with self._inflight_lock:
            if self._inflight >= self.config.max_inflight:
                return False
            self._inflight += 1
            return True

    def end_request(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Annotation requests currently executing."""
        return self._inflight

    # -- metrics -----------------------------------------------------------

    def count_response(self, status: Optional[int],
                       elapsed: float) -> None:
        """Account one request: its status (``None`` when no reply
        went out) and its latency, as one update."""
        registry = self.service.metrics
        with self._accounting_lock:
            registry.counter("http_requests").inc()
            if status is not None:
                registry.labelled("http_responses").inc(str(status))
            registry.histogram("http_request_seconds").observe(elapsed)

    def stats(self) -> Dict[str, object]:
        """``service.stats()``, never between a request's three
        accounting updates."""
        with self._accounting_lock:
            return self.service.stats()

    def http_date(self) -> str:
        """The ``Date`` header value, formatted at most once a second."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            text = formatdate(now, usegmt=True)
            self._date = (now, text)
        return text

    def flush_metrics(self) -> None:
        """Publish this worker's snapshot to the shared directory."""
        if self.metrics_dir is not None:
            # Read before the stats: ``apply`` moves the generation
            # only after the op's effects, so a snapshot stamped with
            # generation g always holds op g's counters.
            applied = self.applied_generation
            self.metrics_dir.flush(self.worker_id, self.stats(), applied)
        self._last_flush = time.monotonic()

    def maybe_flush(self) -> None:
        """Flush if the published snapshot has gone stale."""
        if self.metrics_dir is None:
            return
        if time.monotonic() - self._last_flush >= self.config.flush_interval:
            self.flush_metrics()

    def merged_metrics(self) -> str:
        """Prometheus exposition of the whole fleet's counters.

        Pre-fork, the text ends with a hand-rendered
        ``repro_snapshot_age_seconds`` gauge (one sample per worker,
        from the ``ts`` stamped into each flushed file) --
        ``to_prometheus`` only knows the three registry instrument
        kinds, and a gauge that *should* go down is exactly what they
        are not.
        """
        if self.metrics_dir is None:
            return to_prometheus(self.stats())
        self.flush_metrics()  # the merge must include this worker, live
        text = to_prometheus(self.metrics_dir.merged())
        ages = self.metrics_dir.ages()
        if ages:
            lines = ["# HELP repro_snapshot_age_seconds Age of each "
                     "worker's flushed metrics snapshot.",
                     "# TYPE repro_snapshot_age_seconds gauge"]
            lines += ["repro_snapshot_age_seconds{worker=\"%d\"} %.6f"
                      % (worker, age)
                      for worker, age in sorted(ages.items())]
            text += "\n".join(lines) + "\n"
        return text

    # -- windowed telemetry ------------------------------------------------

    def record_windows(self, ts: Optional[float] = None) -> None:
        """Fold the cumulative snapshot into the windows: the fleet's
        merged one when a metrics dir exists (any worker can then
        answer ``/admin/status`` for the whole fleet), else the live
        ``stats()``."""
        self.windows.record(self.stats() if self.metrics_dir is None
                            else self.metrics_dir.merged(), ts)

    def status_payload(self) -> Dict[str, object]:
        """The ``GET /admin/status`` body: uptime + windowed health."""
        if self.metrics_dir is not None:
            self.flush_metrics()  # the window must see this worker, live
        self.record_windows()
        now = time.time()
        window = self.windows.window_snapshot(now)
        counters = window.get("counters") or {}
        requests = counters.get("http_requests", 0)
        by_status = (window.get("labelled") or {}).get(
            "http_responses", {})
        errors = sum(count for status, count in by_status.items()
                     if str(status).startswith("5"))
        covered = self.windows.covered_seconds(now)
        payload: Dict[str, object] = {
            "status": "draining" if self.draining.is_set() else "ok",
            "worker": self.worker_id,
            "workers": self.config.workers,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "started_ts": self.started_ts,
            "inflight": self.inflight,
            "window": {
                "covered_seconds": covered,
                "width_seconds": self.windows.width_seconds,
                "count": self.windows.count,
                "requests": requests,
                "requests_per_second": (requests / covered
                                        if covered else 0.0),
                "errors": errors,
                "error_rate": errors / requests if requests else 0.0,
                "latency": self.windows.percentiles(
                    "http_request_seconds", now=now),
            },
        }
        if self.metrics_dir is not None:
            payload["snapshot_age_seconds"] = {
                str(worker): age for worker, age
                in sorted(self.metrics_dir.ages(now).items())}
        applied = self.applied_generations()
        payload["generation"] = head = self.op_log.head()
        payload["applied_generation"] = {
            str(worker): done for worker, done in sorted(applied.items())}
        payload["generation_skew"] = head - min(applied.values(),
                                                default=head)
        return payload

    # -- request trace sampling --------------------------------------------

    def sample_span(self, method: str, path: str) -> Optional["object"]:
        """A span for this request if it is 1-in-N sampled, else None.

        The tracer is single-threaded by design, so span creation is
        locked and the new span is immediately popped off the tracer's
        stack -- concurrent sampled requests must emit as independent
        top-level spans, not accidentally nested ones.
        """
        if self._tracer is None:
            return None
        with self._trace_lock:
            self._trace_seq += 1
            if self._trace_seq % self.config.trace_sample != 0:
                return None
            span = self._tracer.span("http.request", method=method,
                                     path=path, worker=self.worker_id)
            try:
                self._tracer._stack.remove(span)
            except ValueError:
                pass
            return span

    def finish_span(self, span: "object", **attrs: object) -> None:
        """Stamp final attrs and emit a sampled request span."""
        with self._trace_lock:
            span.set(**attrs)  # type: ignore[attr-defined]
            span.finish()  # type: ignore[attr-defined]
            # The tracer also accumulates records in memory for
            # programmatic use; a long-lived server only needs the
            # JSONL sink, so drop them as they emit.
            self._tracer.records.clear()

    def start_flush_loop(self) -> None:
        """Each pass reconciles to the op log, flushes a stale snapshot
        and folds the cumulative one into the rolling windows.

        Flushes otherwise happen only on the request path, so an idle
        worker would publish its last snapshot forever (misleading the
        merged report and the promote gate), never apply a sibling's
        admin op, and leave ``/admin/status`` stale.  The sleep is
        floored: ``flush_interval=0.0`` means flush-per-request on the
        serving path, not a busy-spin here that would starve the
        request threads.
        """
        delay = max(self.config.flush_interval, 0.05)

        def _loop() -> None:
            while not self.draining.is_set():
                time.sleep(delay)
                try:
                    self.reconcile()
                    self.maybe_flush()
                    self.record_windows()
                except OSError:
                    pass  # the final drain-time flush will retry

        threading.Thread(target=_loop, daemon=True).start()

    def start_history_loop(self) -> None:
        """Append the live stats to the history until draining.

        Single-process mode only (the pre-fork parent appends the
        merged snapshot instead); a final append happens at drain
        time so even a short-lived run leaves one comparable entry.
        """
        if self.history is not None:
            _append_history(self.history, self.stats, self.draining,
                            self.config.history_interval)

    def server_close(self) -> None:
        """Close the socket, then drain the buffered access log."""
        super().server_close()
        self.access_log.close()

    # -- admin operations --------------------------------------------------

    def apply(self, name: str, generation: Optional[int] = None
              ) -> Union[int, Exception]:
        """Run the :data:`ADMIN_OPS` row ``name`` here and return the
        plan count or the exception raised; never raises.  Counts and
        logs the outcome, moves ``applied_generation`` to ``generation``
        (the log entry applied, if any) and flushes."""
        op = ADMIN_OPS[name]
        counter = self.service.metrics.counter
        try:
            result: Union[int, Exception] = op.action(self)
        except Exception as exc:
            counter(op.errors).inc()
            self.log.log(op.event, level="error", error=str(exc),
                         **op.context(self.config))
            result = exc
        else:
            counter(op.counter).inc()
        if generation is not None:
            self.applied_generation = generation
        try:
            self.flush_metrics()  # a cleared ledger, too, shows at once
        except OSError:
            pass  # the flush loop retries
        return result

    def reconcile(self) -> Dict[int, Union[int, Exception]]:
        """Apply every logged op above ``applied_generation``, in order;
        returns each applied generation's result."""
        with self._apply_lock:
            return {generation: self.apply(name, generation)
                    for generation, name
                    in self.op_log.entries(self.applied_generation)}

    def submit(self, name: str) -> Tuple[int, Union[int, Exception]]:
        """Append op ``name``, reconcile through it, and return its
        generation and result here (one lock spans both, so the flush
        loop cannot apply it in between and take the result)."""
        with self._apply_lock:
            generation = self.op_log.append(name)
            return generation, self.reconcile()[generation]

    def applied_generations(self) -> Dict[int, int]:
        """Each worker's ``applied_generation``: live with one process,
        else as stamped in the flushed snapshots of this fleet's worker
        ids (a reused metrics dir may hold a larger fleet's files)."""
        if self.metrics_dir is None:
            return {self.worker_id: self.applied_generation}
        stamped = self.metrics_dir.stamped("applied_generation")
        return {worker: done for worker, done in stamped.items()  # type: ignore
                if worker < self.config.workers}

    def shadow_report(self) -> Dict[str, object]:
        """The disagreement report this worker can see.

        Pre-fork: flush this worker's live counters, then fold every
        worker's latest snapshot (``merge_shadow_reports``).  Single
        process: straight from the live ``stats()``.
        """
        if self.metrics_dir is not None:
            self.flush_metrics()
            return merge_shadow_reports(self.metrics_dir.snapshots())
        return shadow_report_from_snapshot(self.stats())

    # -- drain -------------------------------------------------------------

    def drain(self) -> None:
        """Graceful shutdown: linger, wait out in-flight work, stop.

        Must not run on the ``serve_forever`` thread (``shutdown``
        waits for that loop to exit) -- signal handlers spawn a thread.
        """
        self.draining.set()
        started = time.monotonic()
        deadline = started + max(self.config.drain_timeout,
                                 self.config.drain_grace)
        while time.monotonic() < deadline:
            grace_over = (time.monotonic() - started
                          >= self.config.drain_grace)
            if grace_over and self.inflight == 0:
                break
            time.sleep(0.01)
        self.shutdown()


class AnnotationHandler(BaseHTTPRequestHandler):
    """Request handler: read, route, guard, annotate, count.

    The stdlib class supplies the connection loop and socket setup;
    reading a request and writing its response are this class's own.
    ``BaseHTTPRequestHandler.parse_request`` hands every header block
    to the ``email`` package's feed parser and answers a bad head with
    an uncounted HTML page; :meth:`_read_head` splits the lines itself,
    and every reply, a refused head included, is JSON written once and
    counted.
    """

    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a ``100 Continue`` and its response are two writes,
    #: and Nagle + delayed ACK would otherwise hold the second ~40ms.
    disable_nagle_algorithm = True
    #: Socket timeout: bounds idle keep-alive reads and lying
    #: Content-Length headers.
    timeout = 30

    server: AnnotationHTTPServer  # for type checkers

    def handle_one_request(self) -> None:
        """Read one request, answer it and count the answer.

        End of stream or a blank request line closes the connection
        without a reply, as the stdlib does.
        """
        try:
            line = self.rfile.readline(MAX_LINE + 1)
        except socket.timeout:  # an idle keep-alive connection
            self.close_connection = True
            return
        words = str(line, "iso-8859-1").split()
        if not words:
            self.close_connection = True
            return
        started = time.perf_counter()
        self.command = self.path = None
        self.request_version = ""
        self.headers = {}
        self._request_id: Optional[str] = None
        self._last_status: Optional[int] = None
        self._bytes_sent = 0
        path: Optional[str] = None
        span = None
        try:
            refused = ((414, "request line over %d bytes" % MAX_LINE)
                       if len(line) > MAX_LINE else self._read_head(words))
            # Honour a caller-supplied id (so a proxy's id threads through
            # our logs) or mint one; either way it is echoed in the
            # ``X-Request-Id`` response header and stamped on the access
            # line and any sampled span.
            self._request_id = (self.headers.get("x-request-id")
                                or new_request_id())
            if refused is not None:
                self.close_connection = True  # the stream is unread
                self._send_json(refused[0], {"error": refused[1]})
                return
            path = self.path.split("?", 1)[0]
            span = self.server.sample_span(self.command, path)
            by_method = _ROUTES.get(path)
            if by_method is None:
                self._send_json(404, {"error": "no such endpoint",
                                      "path": path})
            else:
                route = by_method.get(self.command)
                if route is None:
                    self._send_json(
                        405, {"error": "method not allowed"},
                        headers={"Allow": ", ".join(sorted(by_method))})
                else:
                    route(self)
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            self.close_connection = True
        except Exception as exc:  # a handler bug must not kill the worker
            try:
                self._send_json(500, {
                    "error": "internal server error",
                    "detail": "%s: %s" % (type(exc).__name__, exc)})
            except OSError:
                self.close_connection = True
        finally:
            elapsed = time.perf_counter() - started
            self.server.count_response(self._last_status, elapsed)
            self.server.access_log.log(
                "access", method=self.command, path=path,
                status=self._last_status, bytes=self._bytes_sent,
                latency_seconds=round(elapsed, 9),
                request_id=self._request_id)
            if span is not None:
                self.server.finish_span(
                    span, status=self._last_status,
                    bytes=self._bytes_sent,
                    request_id=self._request_id)
            self.server.maybe_flush()

    def _read_head(self, words: List[str]) -> Optional[Tuple[int, str]]:
        """Parse the request line's ``words`` and read the header block.

        Returns ``(status, error)`` for a head to refuse.  Otherwise sets
        ``command``, ``path``, ``request_version``, ``close_connection``
        and ``headers`` -- a dict keyed by lower-cased field name, in
        which the first of repeated fields wins -- and answers ``Expect:
        100-continue``.  The request-line checks, the limits and the
        ``Connection``/``Expect`` rules are those of the stdlib's
        ``parse_request`` and ``http.client.parse_headers``.  A line the
        stdlib's ``email`` parser would fold into the field before it
        or take as the start of the body (no colon, a blank in the
        name), and ``Content-Length`` fields that disagree, are 400s.
        """
        version = (0, 9)
        if len(words) >= 3:
            match = _VERSION.match(words[-1])
            if match is None:
                return 400, "bad request version %r" % words[-1]
            version = (int(match.group(1)), int(match.group(2)))
            if version >= (2, 0):
                return 505, "HTTP version not supported"
        if not 2 <= len(words) <= 3:
            return 400, "bad request syntax"
        self.command, self.path = words[0], words[1]
        if len(words) == 2 and self.command != "GET":
            return 400, "bad HTTP/0.9 request type %r" % self.command
        self.request_version = words[2] if len(words) == 3 else "HTTP/0.9"
        if self.path.startswith("//"):  # not an absolute URI: one slash
            self.path = "/" + self.path.lstrip("/")
        headers = self.headers
        for _ in range(MAX_HEAD_LINES):
            line = self.rfile.readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                return 431, "header line over %d bytes" % MAX_LINE
            if line in (b"\r\n", b"\n", b""):
                break
            field = _FIELD.match(str(line, "iso-8859-1"))
            if field is None:
                if line.startswith((b" ", b"\t")):
                    return 400, "obsolete line folding"
                return 400, "malformed header line"
            name, value = field.group(1).lower(), field.group(2)
            first = headers.setdefault(name, value)
            if first != value and name == "content-length" \
                    and first.rstrip(" \t") != value.rstrip(" \t"):
                return 400, "conflicting Content-Length fields"
        else:
            return 431, "more than %d header lines" % MAX_HEAD_LINES
        if self.command not in _METHODS:
            return 501, "unsupported method %r" % self.command
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            connection != "keep-alive" and version < (1, 1))
        if headers.get("expect", "").lower() == "100-continue" \
                and version >= (1, 1):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return None

    # -- response plumbing -------------------------------------------------

    def _send_bytes(self, status: int, body: bytes, content_type: str,
                    headers: Optional[Dict[str, str]] = None) -> None:
        """Write the status line, head and body as one write."""
        self._last_status = status
        self._bytes_sent = len(body)
        if self._request_id is None:  # the head was never read
            self._request_id = new_request_id()
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # an HTTP/0.9 reply has no head
            return
        head = _HEAD % (self.server.http_date(), content_type, len(body),
                        self._request_id)
        if headers:
            head += "".join("%s: %s\r\n" % item for item in headers.items())
        if self.server.draining.is_set() or self.close_connection:
            # Draining (get keep-alive clients off this worker) or the
            # stream is unusable (e.g. an unread 413 body): say so.
            head += "Connection: close\r\n"
            self.close_connection = True
        status_line = _STATUS_LINES.get(status) \
            or b"HTTP/1.1 %d \r\n" % status
        self.wfile.write(b"".join((status_line, head.encode("latin-1"),
                                   b"\r\n", body)))

    def _send_json(self, status: int, payload: Dict[str, object],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8") + b"\n"
        self._send_bytes(status, body, "application/json", headers)

    def _read_json(self, allow_empty: bool = False) -> object:
        """The request's JSON payload, or ``_READ_ERROR`` after a reply.

        Enforces ``max_body`` *before* reading (an oversized body is
        refused and the connection closed -- the bytes never transit),
        requires ``Content-Length`` (411 without it), and turns bad
        UTF-8 or bad JSON into a 400 instead of an exception.  The
        error sentinel is not ``None`` because ``None`` is a valid
        parse (a body of literal ``null``) that must reach the
        endpoint's own shape validation.
        """
        raw_length = self.headers.get("content-length")
        if raw_length is None:
            self._send_json(411, {"error": "Content-Length required"})
            return _READ_ERROR
        try:
            length = int(raw_length)
        except ValueError:
            self._send_json(400, {"error": "malformed Content-Length"})
            return _READ_ERROR
        if length < 0:
            self._send_json(400, {"error": "malformed Content-Length"})
            return _READ_ERROR
        if length > self.server.config.max_body:
            self.close_connection = True  # unread body: unusable stream
            self._send_json(413, {
                "error": "request body exceeds %d bytes"
                         % self.server.config.max_body,
                "max_body": self.server.config.max_body})
            return _READ_ERROR
        body = self.rfile.read(length)
        if not body and allow_empty:
            return {}
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            self._send_json(400, {"error": "body is not valid UTF-8"})
            return _READ_ERROR
        try:
            return json.loads(text)
        except ValueError:
            self._send_json(400, {"error": "body is not valid JSON"})
            return _READ_ERROR

    # -- endpoints ---------------------------------------------------------

    def _ep_healthz(self) -> None:
        self._send_json(200, {"status": "ok",
                              "worker": self.server.worker_id,
                              "draining": self.server.draining.is_set()})

    def _ep_readyz(self) -> None:
        if self.server.draining.is_set():
            self._send_json(503, {"status": "draining"})
        else:
            self._send_json(200, {"status": "ready"})

    def _ep_metrics(self) -> None:
        self._send_bytes(200, self.server.merged_metrics().encode("utf-8"),
                         PROM_CONTENT_TYPE)

    def _ep_status(self) -> None:
        """GET /admin/status: uptime, inflight, windowed health."""
        self._send_json(200, self.server.status_payload())

    def _ep_annotate(self) -> None:
        server = self.server
        if not server.try_begin_request():
            self._send_json(429, {"error": "overloaded",
                                  "inflight": server.inflight},
                            headers={"Retry-After": "1"})
            return
        try:
            payload = self._read_json()
            if payload is _READ_ERROR:
                return
            if not isinstance(payload, dict) or "hostname" not in payload:
                self._send_json(400, {
                    "error": 'expected {"hostname": ...}'})
                return
            hostname = payload["hostname"]
            asn = server.service.annotate_one(hostname)
            self._send_json(200, {"hostname": hostname, "asn": asn})
        finally:
            server.end_request()

    def _ep_annotate_batch(self) -> None:
        server = self.server
        if not server.try_begin_request():
            self._send_json(429, {"error": "overloaded",
                                  "inflight": server.inflight},
                            headers={"Retry-After": "1"})
            return
        try:
            payload = self._read_json()
            if payload is _READ_ERROR:
                return
            if (not isinstance(payload, dict)
                    or not isinstance(payload.get("hostnames"), list)):
                self._send_json(400, {
                    "error": 'expected {"hostnames": [...]}'})
                return
            hostnames = payload["hostnames"]
            asns = server.service.annotate_batch(hostnames)
            self._send_json(200, {"count": len(asns), "asns": asns})
        finally:
            server.end_request()

    def _admin(self, name: str, payload: object,
               **fields: object) -> None:
        """Append op ``name``, apply it on this worker, and reply.

        An op re-reads the file it was configured with: a body naming
        another is a 400, and none configured a 409.  Otherwise the
        reply carries the op's ``generation``: 200 once every worker
        has applied it (always, with one process), 202 while siblings
        still have to, 500 when it failed here.
        """
        server = self.server
        op = ADMIN_OPS[name]
        title = name.replace("_", " ")
        for field, configured in op.context(server.config).items():
            if isinstance(payload, dict) and payload.get(field) \
                    and payload[field] != configured:
                self._send_json(400, {
                    "error": "%s re-reads the configured %s file; restart "
                             "to change it" % (title, field),
                    field: configured})
                return
            if not configured:
                self._send_json(409, {
                    "error": "server was not started with a %s file; "
                             "nothing to %s" % (field, title)})
                return
        generation, result = server.submit(name)
        fields.update(op.context(server.config), generation=generation,
                      workers=server.config.workers)
        if isinstance(result, Exception):
            fields["error"] = "%s failed: %s" % (title, result)
            self._send_json(500, fields)
            return
        fields.update({op.done: True, op.count: result})
        applied = server.applied_generations()
        everywhere = len(applied) >= server.config.workers \
            and min(applied.values()) >= generation
        self._send_json(200 if everywhere else 202, fields)

    def _shadow_mode(self, verb: str) -> bool:
        """Whether this is a shadow-mode server; replies 409 if not."""
        if isinstance(self.server.service, ShadowService):
            return True
        self._send_json(409, {"error": "server was not started with "
                                       "--shadow; nothing to %s" % verb})
        return False

    def _ep_reload(self) -> None:
        """POST /admin/reload: re-read the configured conventions."""
        payload = self._read_json(allow_empty=True)
        if payload is not _READ_ERROR:
            self._admin("reload", payload)

    def _ep_shadow(self) -> None:
        """POST /admin/shadow: (re)load the configured candidate file."""
        payload = self._read_json(allow_empty=True)
        if payload is not _READ_ERROR and self._shadow_mode("load"):
            self._admin("shadow_load", payload)

    def _ep_shadow_report(self) -> None:
        """GET /admin/shadow/report: the merged disagreement ledger."""
        server = self.server
        report = server.shadow_report()
        report["promote_threshold"] = server.config.promote_threshold
        self._send_json(200, report)

    def _ep_shadow_promote(self) -> None:
        """POST /admin/shadow/promote: gate, then swap candidate in."""
        server = self.server
        payload = self._read_json(allow_empty=True)
        if payload is _READ_ERROR or not self._shadow_mode("promote"):
            return
        # The gate runs on the *merged* report (every worker's ledger),
        # before any swap happens anywhere.
        report = server.shadow_report()
        if not report["active"]:
            self._send_json(409, {
                "error": "no shadow candidate loaded; nothing to promote"})
            return
        threshold = server.config.promote_threshold
        fraction = report["disagreement_fraction"]
        if threshold is not None and fraction > threshold:
            self._send_json(409, {
                "error": "disagreement %.4f exceeds --promote-threshold "
                         "%.4f; refusing to promote" % (fraction, threshold),
                "disagreement_fraction": fraction,
                "promote_threshold": threshold,
                "disagreements": report["disagreements"],
                "requests": report["requests"]})
            return
        self._admin("promote", payload, disagreement_fraction=fraction)


_ROUTES: Dict[str, Dict[str, Callable[[AnnotationHandler], None]]] = {
    "/healthz": {"GET": AnnotationHandler._ep_healthz},
    "/readyz": {"GET": AnnotationHandler._ep_readyz},
    "/metrics": {"GET": AnnotationHandler._ep_metrics},
    "/annotate": {"POST": AnnotationHandler._ep_annotate},
    "/annotate/batch": {"POST": AnnotationHandler._ep_annotate_batch},
    "/admin/status": {"GET": AnnotationHandler._ep_status},
    "/admin/reload": {"POST": AnnotationHandler._ep_reload},
    "/admin/shadow": {"POST": AnnotationHandler._ep_shadow},
    "/admin/shadow/report": {"GET": AnnotationHandler._ep_shadow_report},
    "/admin/shadow/promote": {"POST": AnnotationHandler._ep_shadow_promote},
}


# -- process orchestration -------------------------------------------------


def _install_signals(server: AnnotationHTTPServer, hup: bool) -> None:
    """SIGTERM/SIGINT drain; SIGHUP submits a ``reload``, or is
    ignored by a pre-fork worker (``hup=False``: the parent appends
    it).  Both run off-thread: ``shutdown`` must not be called from the
    ``serve_forever`` thread, and admin work should not stall accepts.
    """

    def _term(signum: int, frame: object) -> None:
        threading.Thread(target=server.drain, daemon=True).start()

    def _hup(signum: int, frame: object) -> None:
        threading.Thread(target=server.submit, args=("reload",),
                         daemon=True).start()

    signal.signal(signal.SIGTERM, _term)
    signal.signal(signal.SIGINT, _term)
    signal.signal(signal.SIGHUP, _hup if hup else signal.SIG_IGN)


def _append_history(history: HistoryStore,
                    snapshot: Callable[[], Dict[str, object]],
                    stop: threading.Event, interval: float) -> None:
    """Append ``snapshot()`` every ``interval`` s until ``stop``."""

    def _loop() -> None:
        while not stop.wait(max(interval, 0.05)):
            try:
                history.append(snapshot())
            except OSError:
                pass

    threading.Thread(target=_loop, daemon=True).start()


def _write_metrics_out(path: str, snapshot: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _serve_single(service: AnnotationService, config: HttpConfig,
                  ready: Optional[Callable[[int], None]] = None) -> int:
    """One process, one threading server (``workers=1``)."""
    sock = create_listener(config.host, config.port,
                           backlog=config.backlog)
    server = AnnotationHTTPServer(service, config, sock=sock)
    if config.history:
        server.history = HistoryStore(config.history)
    _install_signals(server, hup=True)
    server.start_flush_loop()  # no metrics dir: the windows, the op list
    server.start_history_loop()
    if ready is not None:
        ready(server.server_port)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    if server.history is not None:
        # Final entry: even a run shorter than history_interval leaves
        # one snapshot to compare against the next lifetime's.
        server.history.append(server.stats())
    if config.metrics_out:
        _write_metrics_out(config.metrics_out, server.stats())
    return 0


def _worker_main(service: AnnotationService, config: HttpConfig,
                 shared: Optional[socket.socket], port: int,
                 worker_id: int, metrics_dir: MetricsDir,
                 generation: int, ready_fd: int) -> None:
    """A forked worker's whole life; never returns (``os._exit``)."""
    code = 1
    try:
        if shared is None:
            sock = create_listener(config.host, port, reuse_port=True,
                                   backlog=config.backlog)
        else:
            sock = shared
        server = AnnotationHTTPServer(service, config, sock=sock,
                                      worker_id=worker_id,
                                      metrics_dir=metrics_dir)
        server.applied_generation = generation  # the head at fork time
        _install_signals(server, hup=False)
        server.start_flush_loop()
        os.write(ready_fd, b"1")
        os.close(ready_fd)
        server.serve_forever(poll_interval=0.05)
        server.flush_metrics()  # final snapshot: drain must not lose it
        server.server_close()
        code = 0
    except Exception:
        import traceback
        traceback.print_exc(file=sys.stderr)
    finally:
        os._exit(code)


def _serve_prefork(service: AnnotationService, config: HttpConfig,
                   ready: Optional[Callable[[int], None]] = None) -> int:
    """Fork ``config.workers`` servers sharing one warmed service."""
    reuse = config.reuse_port if config.reuse_port is not None \
        else hasattr(socket, "SO_REUSEPORT")
    owns_metrics_dir = config.metrics_dir is None
    metrics_path = config.metrics_dir or tempfile.mkdtemp(
        prefix="repro-serve-http-")
    metrics_dir = MetricsDir(metrics_path)
    reservation: Optional[socket.socket] = None
    shared: Optional[socket.socket] = None
    if reuse:
        reservation = _reserve_port(config.host, config.port)
        port = reservation.getsockname()[1]
    else:
        shared = create_listener(config.host, config.port,
                                 backlog=config.backlog)
        port = shared.getsockname()[1]

    op_log = OpLog(metrics_path)
    generation = op_log.head()
    parent_log = JsonLogger()  # supervisor diagnostics on stderr
    pids: List[int] = []
    ready_fds: List[int] = []
    for worker_id in range(config.workers):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            for fd in ready_fds:
                os.close(fd)
            _worker_main(service, config, shared, port, worker_id,
                         metrics_dir, generation, write_fd)
            # _worker_main never returns
        os.close(write_fd)
        pids.append(pid)
        ready_fds.append(read_fd)
    if shared is not None:
        shared.close()  # the workers hold their inherited copies

    failures = 0
    for pid, read_fd in zip(pids, ready_fds):
        if os.read(read_fd, 1) != b"1":
            failures += 1
            parent_log.log("worker_start_failed", level="error", pid=pid)
        os.close(read_fd)

    def _forward(signum: int, frame: object) -> None:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    def _hup(signum: int, frame: object) -> None:
        try:
            op_log.append("reload")  # every worker's flush loop applies it
        except OSError as exc:
            parent_log.log("op_append_failed", level="error", op="reload",
                           error=str(exc))

    signal.signal(signal.SIGTERM, _forward)
    signal.signal(signal.SIGINT, _forward)
    signal.signal(signal.SIGHUP, _hup)

    if ready is not None:
        ready(port)

    # Counters *and* the ledger meta, so ``shadow-report --history``
    # can compare candidates across server lifetimes.
    def merged() -> Dict[str, object]:
        return merge_shadow_snapshots(metrics_dir.snapshots())

    history = HistoryStore(config.history) if config.history else None
    history_stop = threading.Event()
    if history is not None:
        _append_history(history, merged, history_stop,
                        config.history_interval)

    status = 1 if failures else 0
    remaining = set(pids)
    while remaining:
        pid, wait_status = os.waitpid(-1, 0)
        if pid in remaining:
            remaining.discard(pid)
            code = os.waitstatus_to_exitcode(wait_status)
            if code != 0:
                status = 1
            parent_log.log("worker_exit",
                           level="error" if code != 0 else "info",
                           pid=pid, exit_code=code)

    history_stop.set()
    if history is not None:
        # Final fleet-wide entry (ledger included): short smoke runs
        # still leave one snapshot for slo-report / shadow-report.
        history.append(merged())

    merged = metrics_dir.merged()
    if config.metrics_out:
        _write_metrics_out(config.metrics_out, merged)
    if reservation is not None:
        reservation.close()
    if owns_metrics_dir:
        shutil.rmtree(metrics_path, ignore_errors=True)
    return status


def serve_http(service: AnnotationService, config: HttpConfig,
               ready: Optional[Callable[[int], None]] = None) -> int:
    """Run the server tree; blocks until drained.  Returns exit code.

    ``ready(port)`` fires once every worker is listening -- with
    ``port=0`` this is how the caller learns the bound port.
    """
    config.validate()
    if config.workers == 1:
        return _serve_single(service, config, ready=ready)
    return _serve_prefork(service, config, ready=ready)


# -- test/bench harness ----------------------------------------------------


def wait_ready(host: str, port: int, timeout: float = 10.0) -> bool:
    """Poll ``/healthz`` until the server answers (or timeout)."""
    import http.client

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=1.0)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return True
            finally:
                conn.close()
        except OSError:
            time.sleep(0.05)
    return False


def wait_applied(host: str, port: int, generation: int, workers: int,
                 polls: int = 600) -> Dict[str, object]:
    """Poll ``/admin/status`` until each of ``workers`` workers has
    applied op ``generation``; returns the status payload.

    The wait ends on the fleet's own report of its state.  ``polls``
    (50 ms apart) only turns a fleet that never gets there into a
    ``TimeoutError``, not a hang.
    """
    import http.client

    applied: Dict[str, int] = {}
    for _ in range(polls):
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request("GET", "/admin/status")
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError("/admin/status answered %d" % response.status)
        payload = json.loads(body)
        applied = payload["applied_generation"]
        if len(applied) == workers and min(applied.values()) >= generation:
            return payload
        time.sleep(0.05)
    raise TimeoutError("workers never reached generation %d: %r"
                       % (generation, applied))


def _server_process_entry(conventions_json: str, config: HttpConfig,
                          memo_size: int, conn: object) -> None:
    """Child entry for :class:`ServerProcess` (module-level: picklable)."""
    service = AnnotationService.from_json(conventions_json,
                                          memo_size=memo_size)
    service.warm()
    if config.shadow:
        # Wrap and load before any fork so every worker inherits the
        # warmed candidate -- the same fork-inheritance property the
        # primary index relies on.
        shadow = ShadowService(service)
        shadow.load_candidate_file(config.shadow)
        service = shadow
    code = serve_http(service, config,
                      ready=lambda port: conn.send(port))  # type: ignore
    sys.exit(code)


class ServerProcess:
    """A whole server tree (pre-fork parent + workers) as one child.

    The handle tests, benchmarks, and the load generator share::

        with ServerProcess(conventions_json, config) as server:
            ...  # server.host, server.port are live and ready

    ``stop()`` sends SIGTERM (graceful drain) and returns the parent's
    exit code; leaving the ``with`` block does the same.
    """

    def __init__(self, conventions_json: str, config: HttpConfig,
                 memo_size: int = DEFAULT_MEMO_SIZE) -> None:
        self.conventions_json = conventions_json
        self.config = config
        self.memo_size = memo_size
        self.host = config.host
        self.port: Optional[int] = None
        self._process = None
        self.exitcode: Optional[int] = None

    def start(self, timeout: float = 30.0) -> "ServerProcess":
        import multiprocessing

        parent_conn, child_conn = multiprocessing.Pipe()
        self._process = multiprocessing.Process(
            target=_server_process_entry,
            args=(self.conventions_json, self.config, self.memo_size,
                  child_conn))
        self._process.start()
        child_conn.close()
        if not parent_conn.poll(timeout):
            self.stop()
            raise RuntimeError("server did not report ready in %.0fs"
                               % timeout)
        self.port = parent_conn.recv()
        parent_conn.close()
        if not wait_ready(self.host, self.port, timeout=timeout):
            self.stop()
            raise RuntimeError("server bound but never answered /healthz")
        return self

    def signal(self, signum: int) -> None:
        """Deliver ``signum`` to the server parent (e.g. SIGHUP)."""
        if self._process is not None and self._process.pid:
            os.kill(self._process.pid, signum)

    def stop(self, timeout: float = 15.0) -> Optional[int]:
        """SIGTERM the tree, join it, and return the exit code."""
        if self._process is None:
            return self.exitcode
        if self._process.is_alive():
            try:
                self.signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(5.0)
        self.exitcode = self._process.exitcode
        self._process = None
        return self.exitcode

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
