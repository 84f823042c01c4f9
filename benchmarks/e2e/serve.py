"""The serving workloads: ``serve_single_zipf`` and ``serve_batch_unique``.

Each repetition boots a fresh ``repro-hoiho serve-http --workers 1`` on
``MEASURED_CPU`` with a speed probe beside it (``speed.py``), verifies
and warms it with every distinct hostname of the fixture's universe
(one pass of batch requests, every answer checked against an in-process
``AnnotationService``), then runs a closed loop that keeps the server
busy.  Every timed response is checked against the same reference.

The time per request is the server's CPU time over the closed loop per
correctly answered request, at reference speed: the cost of a request
to the server, the inverse of what one worker can serve.  A client's
round trip also carries the load generator's CPU, whose speed switches
independently of the server's, so it is a per-layer diagnostic only.

Load comes from this one process on ``OTHER_CPU``, with at most
``CONNECTIONS`` threads, each holding one keep-alive connection with
``TCP_NODELAY``.  One server worker plus this generator fill the 2-CPU
machine the benchmark was sized on; a 2-worker fleet would oversubscribe
it, and ``SO_REUSEPORT`` would hash the two connections onto workers at
random, changing the split from run to run.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.memo import DEFAULT_MEMO_SIZE
from repro.serve.service import AnnotationService

from benchmarks.e2e.common import ROOT, SRC, WORK, BenchError, Outcome, \
    percentile, repeat
from benchmarks.e2e.fixture import ensure_fixture
from benchmarks.e2e.speed import MEASURED_CPU, SpeedProbe, on_cpu

CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
MEMO_SIZE = DEFAULT_MEMO_SIZE
# The traffic shape below is assumed, not measured: no public record of
# PTR-annotation traffic gives its skew, request rate or batch size.
# Each value puts a workload on one side of a mechanism: a rate well
# under single-request capacity, a skew that keeps the memo hot, and
# batches of unique names that overflow it.
#: Offered load of the single-request open loop (requests/s).
RATE = 1000.0
#: Hostnames per ``POST /annotate/batch`` request.
BATCH = 500
ZIPF_EXPONENT = 1.1
#: Length of the Zipf request stream (it is cycled if a phase needs more).
ZIPF_DRAWS = 50_000
#: Distinct hostnames of the unique stream: six times the memo capacity.
UNIQUE = 6 * MEMO_SIZE
#: A server that has not answered /healthz by then has failed to boot.
BOOT_TIMEOUT = 30.0
#: Closed-loop seconds per repetition: short, so a run holds several
#: fresh-server repetitions and reports their median.
CLOSED_S = 3.0
#: Open-loop seconds at ``RATE``, in the traced repetition of
#: ``serve_single_zipf`` only: its tail and lateness are per-layer
#: diagnostics.
OPEN_S = 2.0

_DIGIT_RUN = re.compile(r"\d+")
#: A response that could not be decoded: never equal to an answer.
_UNREADABLE = object()


def _post(path: str, payload: object) -> bytes:
    """One complete HTTP/1.1 request, encoded once before any timing."""
    body = json.dumps(payload).encode("utf-8")
    return (b"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: "
            b"application/json\r\nContent-Length: %d\r\n\r\n%s"
            % (path.encode("ascii"), len(body), body))


@dataclass
class Traffic:
    """Pre-encoded requests with the answer each must get back."""

    field: str                 # response key holding the answer
    requests: List[bytes]
    expected: List[object]


def traffic(hostnames: Sequence[str], answers: Sequence[object],
            batch: bool) -> Traffic:
    if not batch:
        return Traffic("asn", [_post("/annotate", {"hostname": h})
                               for h in hostnames], list(answers))
    chunks = range(0, len(hostnames), BATCH)
    return Traffic("asns",
                   [_post("/annotate/batch",
                          {"hostnames": list(hostnames[i:i + BATCH])})
                    for i in chunks],
                   [list(answers[i:i + BATCH]) for i in chunks])


def zipf_hostnames(universe: Sequence[str], seed: int,
                   count: int = ZIPF_DRAWS) -> List[str]:
    """Zipf(1.1) draws over a seeded shuffle of the universe."""
    rng = random.Random(seed)
    ranked = list(universe)
    rng.shuffle(ranked)
    weights = [1.0 / rank ** ZIPF_EXPONENT
               for rank in range(1, len(ranked) + 1)]
    return rng.choices(ranked, weights=weights, k=count)


def unique_hostnames(universe: Sequence[str], seed: int,
                     count: int = UNIQUE) -> List[str]:
    """``count`` distinct hostnames: universe names with every digit run
    replaced by seeded digits of the same length (ASNs included, so most
    still match a convention)."""
    rng = random.Random(seed)
    candidates = [h for h in universe if _DIGIT_RUN.search(h)]

    def digits(match: "re.Match[str]") -> str:
        width = len(match.group())
        return str(rng.randrange(10 ** width)).zfill(width)

    seen = set()
    names: List[str] = []
    for _ in range(20 * count):
        name = _DIGIT_RUN.sub(digits, rng.choice(candidates))
        if name not in seen:
            seen.add(name)
            names.append(name)
            if len(names) == count:
                break
    return names


@dataclass
class Phase:
    """One phase's exact samples and its operation counts."""

    attempted: int = 0
    failed: int = 0
    #: ``time.monotonic()`` bounds, for the speed probe.
    started: float = 0.0
    duration: float = 0.0
    #: Latency of every correct answer.
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def merge(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies += other.latencies
        self.lateness += other.lateness
        self.errors += other.errors[:5]


class _Conn:
    """One keep-alive connection of a :class:`LoadGenerator`.

    A minimal HTTP/1.1 client over a raw socket: requests are sent as
    prebuilt bytes and only the status line, ``Content-Length`` and
    ``Connection`` are parsed, so the generator spends little of the
    machine the server shares with it.  After a transport or protocol
    error it reconnects on the next request (the caller counts the
    error as a failure).
    """

    def __init__(self, host: str, port: int,
                 opened: Callable[[int], None] = lambda delta: None) -> None:
        self.address = (host, port)
        self.opened = opened          # told +1 / -1 as the socket opens/closes
        self.sock: Optional[socket.socket] = None
        self.reader = None

    def connect(self) -> None:
        if self.sock is None:
            sock = socket.create_connection(self.address, timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock, self.reader = sock, sock.makefile("rb")
            self.opened(1)

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None
            self.opened(-1)

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        """(status, body) of one request; status 0 on any error."""
        try:
            self.connect()
            self.sock.sendall(request)
            status = int(self.reader.readline().split(None, 2)[1])
            length, close = 0, False
            while True:
                line = self.reader.readline()
                if line == b"\r\n":
                    break
                if not line:
                    raise EOFError("connection closed mid-response")
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
            body = self.reader.read(length)
            if len(body) != length:
                raise EOFError("short body")
            if close:
                self.close()
            return status, body
        except (OSError, ValueError, IndexError, EOFError):
            self.close()
            return 0, b""


class LoadGenerator:
    """Closed- and open-loop phases against one server, exact latencies.

    Every latency is kept (no histogram buckets): the repo's load
    generator buckets at 1/2/5 ms, too coarse to compare sub-millisecond
    medians.  ``peak_threads`` and ``peak_connections`` record the most
    this generator ever ran at once.
    """

    def __init__(self, host: str, port: int,
                 connections: int = CONNECTIONS) -> None:
        self.host = host
        self.port = port
        self.connections = connections
        self.peak_threads = 0
        self.peak_connections = 0
        self._open = 0
        self._lock = threading.Lock()

    def _opened(self, delta: int) -> None:
        with self._lock:
            self._open += delta
            self.peak_connections = max(self.peak_connections, self._open)

    def _conn(self) -> _Conn:
        return _Conn(self.host, self.port, self._opened)

    @staticmethod
    def _judge(phase: Phase, load: Traffic, index: int, status: int,
               data: bytes, latency: float) -> None:
        phase.attempted += 1
        answer = _UNREADABLE
        if status == 200:
            try:
                answer = json.loads(data)[load.field]
            except (ValueError, KeyError, TypeError):
                pass
        if answer == load.expected[index]:
            phase.latencies.append(latency)
        else:
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append("request %d: status %d, wrong or "
                                    "unreadable answer" % (index, status))

    def _threads(self, target, *args) -> Phase:
        """Run ``target(k, phase, *args)`` on one thread per connection."""
        phases = [Phase() for _ in range(self.connections)]
        crashed: List[BaseException] = []

        def guarded(k: int) -> None:
            try:
                target(k, phases[k], *args)
            except Exception as exc:  # reported below, never lost
                crashed.append(exc)

        threads = [threading.Thread(target=guarded, args=(k,), daemon=True)
                   for k in range(self.connections)]
        self.peak_threads = max(self.peak_threads, len(threads))
        merged = Phase(started=time.monotonic())
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged.duration = time.monotonic() - merged.started
        for phase in phases:
            merged.merge(phase)
        if crashed:
            raise BenchError("load thread crashed: %r" % crashed[0])
        return merged

    def closed_loop(self, load: Traffic,
                    seconds: Optional[float] = None) -> Phase:
        """Each connection sends its next request when the last returns.

        Without ``seconds``, every request is sent exactly once.
        """
        deadline = None if seconds is None \
            else time.perf_counter() + seconds
        return self._threads(self._closed, load, deadline)

    def _closed(self, k: int, phase: Phase, load: Traffic,
                deadline: Optional[float]) -> None:
        conn = self._conn()
        total = len(load.requests)
        index = k
        try:
            conn.connect()
            while (index < total if deadline is None
                   else time.perf_counter() < deadline):
                request = index % total
                start = time.perf_counter()
                status, data = conn.exchange(load.requests[request])
                self._judge(phase, load, request, status, data,
                            time.perf_counter() - start)
                index += self.connections
        finally:
            conn.close()

    def open_loop(self, load: Traffic, rate: float,
                  seconds: float) -> Phase:
        """Requests due every ``1/rate`` s, whatever the server does.

        Latency runs from the due time, so a stall is charged to every
        request it delays; lateness is actual minus due send time.
        """
        slots = [0]
        lock = threading.Lock()
        epoch: List[float] = []
        barrier = threading.Barrier(
            self.connections, action=lambda: epoch.append(time.perf_counter()))
        return self._threads(self._open_worker, load, rate,
                             max(1, int(rate * seconds)), slots, lock,
                             barrier, epoch)

    def _open_worker(self, k: int, phase: Phase, load: Traffic, rate: float,
                     total: int, slots: List[int], lock: threading.Lock,
                     barrier: threading.Barrier,
                     epoch: List[float]) -> None:
        conn = self._conn()
        try:
            conn.connect()
            barrier.wait(timeout=30)
            while True:
                with lock:
                    slot = slots[0]
                    if slot >= total:
                        return
                    slots[0] = slot + 1
                due = epoch[0] + slot / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                request = slot % len(load.requests)
                status, data = conn.exchange(load.requests[request])
                self._judge(phase, load, request, status, data,
                            time.perf_counter() - due)
                phase.lateness.append(sent - due)
        finally:
            conn.close()

    def scrape(self) -> Dict[str, float]:
        """The server's ``GET /metrics`` samples by name (labels kept)."""
        conn = self._conn()
        try:
            status, data = conn.exchange(
                b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        finally:
            conn.close()
        if status != 200:
            raise BenchError("GET /metrics answered %d" % status)
        values = {}
        for line in data.decode("utf-8").splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values


#: The server's environment adds ``MALLOC_ARENA_MAX=1``.  glibc gives
#: the server's connection threads malloc arenas of their own, and how
#: many a run touches changes from boot to boot: eight fresh servers on
#: the unique batch stream peaked at 52-62 MB in steps of about 2 MB
#: with the default, and at 52.0-52.3 MB with one arena.
SERVER_ENV = {"MALLOC_ARENA_MAX": "1", "PYTHONPATH": str(SRC)}


class Server:
    """``repro-hoiho serve-http --workers 1`` as a child process: booted
    the way a user boots it, and measured without this process's memory
    (a forked server would count the request streams as its own)."""

    def __init__(self, conventions: Path) -> None:
        self.conventions = conventions
        self.host = "127.0.0.1"
        self.port = 0
        self.started = 0.0
        self.proc: Optional[subprocess.Popen] = None
        self.log = WORK / "tmp" / ("server-%d.log" % os.getpid())

    def start(self) -> float:
        """Boot on ``MEASURED_CPU`` and wait for ``GET /healthz`` 200;
        returns the seconds, counted from ``self.started``."""
        with socket.socket() as probe:
            probe.bind((self.host, 0))
            self.port = probe.getsockname()[1]
        self.started = time.monotonic()
        with open(self.log, "wb") as log, on_cpu(MEASURED_CPU):
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve-http",
                 "--conventions", str(self.conventions), "--host",
                 self.host, "--port", str(self.port), "--workers", "1",
                 "--no-cache"],
                cwd=str(ROOT), env=dict(os.environ, **SERVER_ENV),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log)
        while time.monotonic() - self.started < BOOT_TIMEOUT:
            if self.proc.poll() is not None:
                break
            conn = _Conn(self.host, self.port)
            try:
                status, _ = conn.exchange(
                    b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
            finally:
                conn.close()
            if status == 200:
                return time.monotonic() - self.started
            time.sleep(0.002)
        log = self.log.read_text(errors="replace")[-2000:]
        self.stop()
        raise BenchError("server did not answer /healthz: %s" % log)

    def cpu_s(self) -> float:
        """The server's CPU time so far: user plus system, over all its
        threads, exited ones included."""
        with open("/proc/%d/stat" % self.proc.pid,
                  encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM``: its peak resident set so far."""
        with open("/proc/%d/status" % self.proc.pid,
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.unlink(missing_ok=True)
        return self.proc.returncode


@dataclass
class Rep:
    #: Boot to /healthz 200, at reference speed.
    setup_s: float
    #: Server CPU seconds per correctly answered closed-loop request,
    #: at reference speed.
    op_s: float
    #: The probe's slowdown over the closed loop (1 = reference speed).
    slowdown: float
    #: Server CPU time over the closed loop's wall time.
    busy: float
    peak_rss_mb: float
    closed: Phase
    opened: Optional[Phase]
    before: Dict[str, float]
    after: Dict[str, float]

    @property
    def latency_phase(self) -> Phase:
        """The phase behind the tail ratio: the open loop when there is
        one."""
        return self.opened if self.opened is not None else self.closed


def _rep(out: Outcome, conventions: Path, verify: Traffic, timed: Traffic,
         closed_s: float, open_s: float = 0.0, tracer=NULL_TRACER) -> Rep:
    """Boot, verify and warm, run the timed phases, stop; all beside a
    speed probe on the server's CPU."""
    server = Server(conventions)
    with SpeedProbe() as probe:
        with tracer.span("serve.boot"):
            setup = server.start()
        try:
            client = LoadGenerator(server.host, server.port)
            with tracer.span("serve.verify"):
                checked = client.closed_loop(verify)
            before = client.scrape()
            cpu = server.cpu_s()
            with tracer.span("serve.closed_loop", seconds=closed_s):
                closed = client.closed_loop(timed, closed_s)
            cpu = server.cpu_s() - cpu
            opened = None
            if open_s:
                with tracer.span("serve.open_loop", rate=RATE,
                                 seconds=open_s):
                    opened = client.open_loop(timed, RATE, open_s)
            after = client.scrape()
            rss = server.peak_rss_mb()
        finally:
            code = server.stop()
    for phase in (checked, closed, opened):
        if phase is not None:
            out.record(phase.attempted, phase.failed, "; ".join(phase.errors))
    out.record(1, 0 if code == 0 else 1, "server exited with %r" % code)
    out.info["peak_threads"] = max(out.info.get("peak_threads", 0),
                                   client.peak_threads)
    out.info["peak_connections"] = max(out.info.get("peak_connections", 0),
                                       client.peak_connections)
    closed_end = closed.started + closed.duration
    return Rep(
        setup_s=probe.reference(setup, server.started,
                                server.started + setup),
        op_s=probe.reference(cpu / max(1, len(closed.latencies)),
                             closed.started, closed_end),
        slowdown=probe.slowdown(closed.started, closed_end),
        busy=cpu / closed.duration,
        peak_rss_mb=rss, closed=closed, opened=opened, before=before,
        after=after)


def _server_layers(before: Dict[str, float],
                   after: Dict[str, float]) -> Dict[str, float]:
    """Memo and admission numbers over the timed phases, from /metrics."""
    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    hits, misses = delta("repro_memo_hits"), delta("repro_memo_misses")
    return {
        "serve.memo.hit_rate": hits / max(1.0, hits + misses),
        "serve.memo.evictions": delta("repro_memo_evictions"),
        "serve.annotated_share": delta("repro_annotated")
        / max(1.0, delta("repro_requests")),
        "http.rejected": delta('repro_http_responses{label="429"}')
        + delta('repro_http_responses{label="413"}'),
    }


def _in_process(conventions: str, universe: Sequence[str],
                hostnames: Sequence[str], timed: Traffic, batch: bool,
                tracer: Tracer) -> Dict[str, float]:
    """Service and codec cost of the same stream, in this process.

    The service gets the server's memo size and the verify pass's
    warm-up.  The codec step is the JSON work inside one round trip:
    the server decodes the request and encodes the response, and the
    client decodes the response (requests are encoded before timing).
    """
    service = AnnotationService.from_json(conventions, memo_size=MEMO_SIZE)
    service.warm()
    service.annotate_batch(universe)
    requests = len(timed.requests)
    if batch:
        chunks = [hostnames[i:i + BATCH]
                  for i in range(0, len(hostnames), BATCH)]
        with tracer.span("serve.service", requests=requests) as service_span:
            for chunk in chunks:
                service.annotate_batch(chunk)
        payloads = [({"hostnames": chunk}, {"count": len(chunk),
                                            "asns": answer})
                    for chunk, answer in zip(chunks, timed.expected)]
    else:
        with tracer.span("serve.service", requests=requests) as service_span:
            for hostname in hostnames:
                service.annotate_one(hostname)
        payloads = [({"hostname": h}, {"hostname": h, "asn": answer})
                    for h, answer in zip(hostnames, timed.expected)]
    bodies = [json.dumps(request).encode("utf-8") for request, _ in payloads]
    with tracer.span("serve.codec", requests=requests) as codec_span:
        for body, (_, response) in zip(bodies, payloads):
            json.loads(body.decode("utf-8"))
            json.loads(json.dumps(response).encode("utf-8") + b"\n")
    per_request = 1e6 / requests
    per_hostname = 1e6 / len(hostnames)
    return {
        "service_us_per_req": service_span.wall * per_request,
        "service_us_per_hostname": service_span.wall * per_hostname,
        "codec_us_per_req": codec_span.wall * per_request,
        "codec_us_per_hostname": codec_span.wall * per_hostname,
    }


def _sample(out: Outcome, rep: Rep) -> None:
    out.sample("setup_s", rep.setup_s)
    out.sample("peak_rss_mb", rep.peak_rss_mb)
    out.sample("time_per_op_ms", rep.op_s * 1000.0)
    out.info.setdefault("slowdowns", []).append(rep.slowdown)
    out.info.setdefault("server_busy", []).append(rep.busy)


def _layers(out: Outcome, rep: Rep,
            in_process: Dict[str, float]) -> None:
    """The traced rep's per-layer numbers: shares of the median
    closed-loop round trip, memo and admission counts, tail ratios.
    The absolute times go to ``info``."""
    round_trip_us = statistics.median(rep.closed.latencies) * 1e6
    service_us = in_process["service_us_per_req"]
    codec_us = in_process["codec_us_per_req"]
    out.layers.update(_server_layers(rep.before, rep.after))
    out.layers.update({
        "serve.service.share": service_us / round_trip_us,
        "serve.codec.share": codec_us / round_trip_us,
        "serve.http.share": 1.0 - (service_us + codec_us) / round_trip_us,
    })
    latencies = rep.latency_phase.latencies
    p50, p99 = statistics.median(latencies), percentile(latencies, 0.99)
    out.layers["http.p99_over_p50"] = p99 / p50
    out.info.update(in_process, round_trip_us=round_trip_us,
                    http_p99_ms=p99 * 1000.0)
    if rep.opened is not None:
        late = percentile(rep.opened.lateness, 0.99)
        out.layers["loadgen.late_p99_share"] = late * RATE
        out.info["late_p99_ms"] = late * 1000.0


def run(out: Outcome, seed: int, seconds: float, scale: str, measure: bool,
        trace_path: Optional[Path], batch: bool,
        phase_s: Optional[float] = None) -> None:
    """One serving workload: untraced reps for ``seconds``, then (with
    ``trace_path``) one traced rep plus the in-process layer split."""
    fixture = ensure_fixture(scale)
    conventions = str(fixture["serve_conventions"])
    universe = list(fixture["universe"])
    reference = AnnotationService.from_json(conventions, memo_size=0)
    verify = traffic(universe, reference.annotate_batch(universe), True)
    hostnames = unique_hostnames(universe, seed) if batch \
        else zipf_hostnames(universe, seed)
    timed = traffic(hostnames, reference.annotate_batch(hostnames), batch)
    closed_s = CLOSED_S if phase_s is None else phase_s
    open_s = 0.0 if batch else OPEN_S if phase_s is None else phase_s
    out.info.update(distinct_hostnames=len(set(hostnames)),
                    universe=len(universe), connections=CONNECTIONS,
                    fixture_s=fixture["fixture_s"])
    path = WORK / "tmp" / ("conventions-%d.json" % os.getpid())
    path.write_text(conventions, encoding="utf-8")
    try:
        if measure:
            out.info["reps"] = repeat(seconds, lambda: _sample(
                out, _rep(out, path, verify, timed, closed_s)))
        if trace_path is None:
            return
        with Tracer(path=str(trace_path)) as tracer:
            with tracer.span("serve_batch_unique" if batch
                             else "serve_single_zipf", seed=seed):
                rep = _rep(out, path, verify, timed, closed_s, open_s,
                           tracer)
                in_process = _in_process(conventions, universe, hostnames,
                                         timed, batch, tracer)
        _layers(out, rep, in_process)
    finally:
        path.unlink(missing_ok=True)
