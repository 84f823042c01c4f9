"""``repro.serve.loadgen`` -- open/closed-loop HTTP load generation.

The measurement harness that turns the ROADMAP's "serve heavy traffic"
into numbers: drive :mod:`repro.serve.http` over real sockets and
report throughput plus latency percentiles from
:mod:`repro.obs.metrics` histograms.

Two loop disciplines, because they answer different questions:

* **closed loop** -- ``concurrency`` workers, each with one persistent
  keep-alive connection, issuing the next request the moment the
  previous response lands.  Measures *capacity*: the throughput the
  server sustains when clients are never the bottleneck.  Latency here
  is pure service time (the client waited for nothing but the server).
* **open loop** -- requests are released on a fixed schedule
  (``rate`` per second) regardless of completions, and each latency is
  measured **from the scheduled send time**, so queueing delay when the
  server falls behind is charged to the request instead of silently
  absorbed (the coordinated-omission correction).  Measures *behaviour
  at a given offered load*.

Determinism: the caller supplies the hostname stream (``repro-hoiho
loadgen`` defaults to ``repro.bench.zipf_hostnames``, the Zipf workload
the in-process memo/dispatch kernels time, so the numbers are
comparable) and
:func:`workload_fingerprint` hashes it into the result, so two reports
claiming the same fingerprint measured byte-identical workloads.

Every worker thread keeps a private :class:`MetricsRegistry` (no lock
contention on the hot path); the final report merges them through
``MetricsRegistry.merge_snapshot`` -- the same primitive the pre-fork
server uses for its own cross-process aggregation.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry

#: Latency bounds (seconds) for loadgen histograms: 100us .. 30s.
#: Wider than the serve-side default because open-loop latencies
#: include queueing delay, which can dwarf service time under overload.
LOADGEN_LATENCY_BOUNDS = (
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0, 2.0, 5.0, 10.0, 30.0,
)


def workload_fingerprint(hostnames: Sequence[str]) -> str:
    """SHA-256 over the exact hostname stream (order-sensitive).

    Recorded in every loadgen result: equal fingerprints mean
    byte-identical workloads, so throughput numbers are comparable
    across runs.
    """
    digest = hashlib.sha256()
    for hostname in hostnames:
        digest.update(hostname.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class LoadGenConfig:
    """One load-generation run against a live server."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: ``closed`` (capacity) or ``open`` (fixed offered rate).
    mode: str = "closed"
    #: Total requests to issue.
    requests: int = 1000
    #: Closed loop: concurrent connections.  Open loop: sender threads
    #: (must exceed rate * typical latency or the schedule slips).
    concurrency: int = 4
    #: Open loop only: offered requests per second.
    rate: float = 100.0
    #: Hostnames per request: 1 -> ``POST /annotate``, else
    #: ``POST /annotate/batch`` with slices of this size.
    batch_size: int = 1
    timeout: float = 30.0

    def validate(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError("mode must be 'closed' or 'open', got %r"
                             % self.mode)
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch-size must be >= 1")
        if self.mode == "open" and self.rate <= 0:
            raise ValueError("open loop needs rate > 0")


class _Client:
    """One persistent keep-alive connection with reconnect-on-error."""

    def __init__(self, config: LoadGenConfig) -> None:
        self.config = config
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            conn = http.client.HTTPConnection(
                self.config.host, self.config.port,
                timeout=self.config.timeout)
            conn.connect()
            # Headers and body go out as separate writes; without
            # TCP_NODELAY, Nagle + delayed ACK adds ~40ms per request.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def post(self, path: str, payload: Dict[str, object]) -> int:
        """POST ``payload``; returns the status (0 = transport error).

        The response body is always drained (keep-alive requires it),
        and transport errors tear the connection down so the next call
        starts clean -- the server closing connections during drain is
        an expected, recoverable event, not a crash.  That event
        surfaces as ``http.client`` protocol errors
        (``BadStatusLine``/``ResponseNotReady``/...), not just
        ``OSError``, so both families count as transport errors here --
        an uncaught one would kill the worker thread instead.
        """
        body = json.dumps(payload).encode("utf-8")
        try:
            conn = self._connection()
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            if response.will_close:
                self.close()
            return response.status
        except (OSError, http.client.HTTPException):
            self.close()
            return 0


def _request_payloads(hostnames: Sequence[str], requests: int,
                      batch_size: int) -> List[Dict[str, object]]:
    """The request bodies, cycling the hostname stream as needed."""
    total = len(hostnames)
    payloads: List[Dict[str, object]] = []
    cursor = 0
    for _ in range(requests):
        if batch_size == 1:
            payloads.append({"hostname": hostnames[cursor % total]})
            cursor += 1
        else:
            batch = [hostnames[(cursor + i) % total]
                     for i in range(batch_size)]
            payloads.append({"hostnames": batch})
            cursor += batch_size
    return payloads


def _observe(registry: MetricsRegistry, status: int,
             latency: float) -> None:
    registry.counter("requests").inc()
    registry.labelled("status").inc(str(status) if status else "error")
    if status == 200:
        registry.histogram("latency_seconds",
                           LOADGEN_LATENCY_BOUNDS).observe(latency)
    else:
        registry.counter("errors").inc()


def _closed_worker(config: LoadGenConfig, path: str,
                   payloads: Sequence[Dict[str, object]],
                   registry: MetricsRegistry) -> None:
    client = _Client(config)
    try:
        for payload in payloads:
            started = time.perf_counter()
            status = client.post(path, payload)
            _observe(registry, status, time.perf_counter() - started)
    finally:
        client.close()


def _open_worker(config: LoadGenConfig, path: str,
                 payloads: Sequence[Dict[str, object]],
                 schedule: Sequence[float],
                 barrier: "threading.Barrier", epoch_box: List[float],
                 next_index: List[int], index_lock: threading.Lock,
                 registry: MetricsRegistry) -> None:
    try:
        client = _Client(config)
    except BaseException:
        # A worker that never reaches the barrier would deadlock its
        # siblings; break the barrier so they fail fast instead.
        barrier.abort()
        raise
    try:
        # The epoch -- time zero of every schedule slot -- is stamped
        # by the barrier action once ALL senders are up.  Capturing it
        # before the threads start would charge thread-startup time to
        # the first requests' coordinated-omission-corrected latency.
        barrier.wait()
        epoch = epoch_box[0]
        while True:
            with index_lock:
                index = next_index[0]
                if index >= len(payloads):
                    return
                next_index[0] = index + 1
            scheduled = epoch + schedule[index]
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            status = client.post(path, payloads[index])
            # Latency from the *scheduled* time: if every sender was
            # busy when this slot came due, the wait counts against
            # the server (coordinated-omission correction).
            _observe(registry, status, time.perf_counter() - scheduled)
    finally:
        client.close()


def _guarded(target: Callable[..., None], args: tuple,
             failures: List[BaseException]) -> Callable[[], None]:
    """Wrap a worker target so an escaped exception is *recorded*.

    Worker threads are daemons; without this, a dying worker (a bug,
    or a transport failure class ``post`` doesn't map to status 0)
    would silently under-issue its share and the report would claim a
    clean run with fewer requests than configured.
    """

    def _run() -> None:
        try:
            target(*args)
        except BaseException as exc:
            failures.append(exc)

    return _run


def run_loadgen(config: LoadGenConfig,
                hostnames: Sequence[str]) -> Dict[str, object]:
    """Drive the server per ``config``; return the measured report.

    The report carries both loop-discipline inputs (mode, concurrency
    or rate, batch size) and outcomes: wall duration, request and
    hostname throughput, per-status counts, and p50/p90/p99/mean
    latency in seconds from the merged per-thread histograms.

    Raises ``RuntimeError`` when a worker thread died with requests
    unissued -- a partial report must never pass for a complete one.
    """
    config.validate()
    if not hostnames:
        raise ValueError("loadgen needs a non-empty hostname stream")
    path = "/annotate" if config.batch_size == 1 else "/annotate/batch"
    payloads = _request_payloads(hostnames, config.requests,
                                 config.batch_size)
    registries = [MetricsRegistry() for _ in range(config.concurrency)]
    threads: List[threading.Thread] = []
    failures: List[BaseException] = []
    started = time.perf_counter()
    if config.mode == "closed":
        for worker_id, registry in enumerate(registries):
            share = payloads[worker_id::config.concurrency]
            threads.append(threading.Thread(
                target=_guarded(_closed_worker,
                                (config, path, share, registry), failures),
                daemon=True))
    else:
        schedule = [index / config.rate for index in range(len(payloads))]
        next_index = [0]
        index_lock = threading.Lock()
        # Workers release off this barrier; its action stamps the
        # epoch once every sender is running, so request 0's schedule
        # slot is not pre-aged by thread startup.
        epoch_box: List[float] = []
        barrier = threading.Barrier(
            config.concurrency,
            action=lambda: epoch_box.append(time.perf_counter()))
        for registry in registries:
            threads.append(threading.Thread(
                target=_guarded(
                    _open_worker,
                    (config, path, payloads, schedule, barrier, epoch_box,
                     next_index, index_lock, registry), failures),
                daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started

    merged = MetricsRegistry()
    for registry in registries:
        merged.merge_snapshot(registry.snapshot())
    latency = merged.histogram("latency_seconds", LOADGEN_LATENCY_BOUNDS)
    requests = merged.counter("requests").value
    errors = merged.counter("errors").value
    ok = requests - errors
    if failures or requests != config.requests:
        detail = ("%s: %s" % (type(failures[0]).__name__, failures[0])
                  if failures else "no exception captured")
        raise RuntimeError(
            "loadgen worker died with requests unissued "
            "(%d of %d issued; %d worker failure(s); first: %s)"
            % (requests, config.requests, len(failures), detail))
    return {
        "mode": config.mode,
        "requests": requests,
        "ok": ok,
        "errors": errors,
        "concurrency": config.concurrency,
        "rate": config.rate if config.mode == "open" else None,
        "batch_size": config.batch_size,
        "hostnames_per_request": config.batch_size,
        "duration_s": duration,
        "throughput_rps": ok / duration if duration > 0 else 0.0,
        "hostnames_per_s": (ok * config.batch_size / duration
                            if duration > 0 else 0.0),
        "status": dict(merged.labelled("status").values),
        "latency_p50_s": latency.percentile(0.50),
        "latency_p90_s": latency.percentile(0.90),
        "latency_p99_s": latency.percentile(0.99),
        "latency_mean_s": latency.mean,
        "workload_fingerprint": workload_fingerprint(hostnames),
    }
