"""The HTTP serving smoke: a real ``repro-hoiho serve-http`` tree.

``learn`` saves conventions from five training lines, and ``serve-http
--workers 2`` serves them in a child process, as a user would run it:
the access log on stderr, every request traced, a metrics history and
a merged snapshot on exit.  The tests drive that one server in file
order: a closed-loop burst over a throughput floor, exact merged
``/metrics`` counters, request ids, the ``/admin/status`` window and
``watch``; then a SIGTERM drain, after which the captured stderr, the
span file, the merged snapshot and ``slo-report`` are checked.

What the in-process suites prove is not repeated here:
``tests/serve/test_http.py::TestPreFork`` (merge, reload, SIGHUP, the
drain grace window), ``tests/serve/test_http_reader.py`` (pipelining,
``Expect: 100-continue``, malformed heads) and
``tests/serve/test_http_telemetry.py`` (access-log fields, request ids,
``/admin/status``, ``worker_exit``, ``watch``).

Tier-1 deselects these tests (``-m 'not slow and not smoke'``);
``pytest -m smoke tests/integration`` runs them.
"""

import json
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from repro.bench import zipf_hostnames
from repro.serve.http import create_listener, wait_ready
from repro.serve.loadgen import LoadGenConfig, run_loadgen
from tests.integration.test_incremental_smoke import SRC, _cli
from tests.serve.test_http import merged_counter
from tests.serve.test_http_telemetry import read_jsonl, request

pytestmark = pytest.mark.smoke

TRAINING = ("as3356.lon1.example.com 3356\nas1299.lon2.example.com 1299\n"
            "as174.fra1.example.com 174\nas2914.fra2.example.com 2914\n"
            "as6453.ams1.example.com 6453\n")
HOSTNAME = "as3356.lon1.example.com"
FIXED_ID = "ci-fixed-request-id"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """The running tree: ``port``, ``process`` and ``workdir``; the
    tests add what later ones read (the burst, a generated id)."""
    workdir = tmp_path_factory.mktemp("http")
    (workdir / "train.txt").write_text(TRAINING, encoding="utf-8")
    _cli(workdir, "learn", "--hostnames", "train.txt", "--save",
         "conv.json")
    probe = create_listener("127.0.0.1", 0)
    port = probe.getsockname()[1]
    probe.close()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(workdir / "telemetry.log", "w", encoding="utf-8") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-http",
             "--conventions", "conv.json", "--port", str(port),
             "--workers", "2", "--no-cache", "--access-log", "-",
             "--trace-sample", "1", "--trace-out", "spans.jsonl",
             "--history", "history.jsonl", "--history-interval", "0.5",
             "--metrics-out", "http-metrics.json"],
            cwd=workdir, env=env, stderr=log)
    try:
        assert wait_ready("127.0.0.1", port, timeout=30.0), \
            (workdir / "telemetry.log").read_text(encoding="utf-8")
        yield SimpleNamespace(port=port, process=process, workdir=workdir)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


def test_burst_and_merged_counters(server):
    burst = run_loadgen(LoadGenConfig(port=server.port, mode="closed",
                                      requests=400, concurrency=4),
                        zipf_hostnames())
    assert burst["errors"] == 0, burst["status"]
    assert burst["throughput_rps"] >= 100.0, \
        "closed-loop throughput fell below 100 req/s"
    server.annotations = burst["requests"]
    for _ in range(2):
        assert request(server.port, "GET", "/nope")[0] == 404
    assert request(server.port, "POST", "/annotate", {"host": 1})[0] == 400
    # Both workers' counts reach the merged exposition within a flush
    # interval; the burst answered no 4xx.
    watched = ('http_responses{label="404"}',
               'http_responses{label="400"}', "requests")
    want = [2, 1, server.annotations]
    for _ in range(200):
        seen = [merged_counter(server.port, name) for name in watched]
        if seen == want:
            break
        time.sleep(0.05)
    assert seen == want


def test_request_ids_status_window_and_watch(server):
    for _ in range(30):
        status, headers, _ = request(server.port, "POST", "/annotate",
                                     {"hostname": HOSTNAME})
        assert status == 200
    server.generated = headers["X-Request-Id"]
    assert len(server.generated) == 16, server.generated
    status, headers, _ = request(server.port, "GET", "/healthz",
                                 headers={"X-Request-Id": FIXED_ID})
    assert status == 200
    assert headers["X-Request-Id"] == FIXED_ID, \
        "client-supplied request id was not echoed"

    status, _, payload = request(server.port, "GET", "/admin/status")
    window = payload["window"]
    assert status == 200
    assert window["requests"] > 0, window
    assert window["requests_per_second"] > 0.0, window
    assert set(window["latency"]) >= {"p50", "p90", "p99"}
    _cli(server.workdir, "watch", "--port", str(server.port),
         "--iterations", "1", "--interval", "0")


def test_drain_leaves_structured_telemetry(server):
    server.process.send_signal(signal.SIGTERM)
    assert server.process.wait(timeout=30) == 0
    lines = (server.workdir / "telemetry.log").read_text(
        encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines
               if line.strip() and not line.startswith("#")]
    access = [r for r in records if r["event"] == "access"]
    exits = [r for r in records if r["event"] == "worker_exit"]
    assert len(access) >= 31, "access lines went missing"
    for record in access:
        assert record["request_id"] and record["path"]
        assert isinstance(record["status"], int)
    ids = {record["request_id"] for record in access}
    assert server.generated in ids, \
        "echoed X-Request-Id never reached the access log"
    assert FIXED_ID in ids
    assert len(exits) == 2, exits
    assert all(r["exit_code"] == 0 for r in exits), exits

    spans = read_jsonl(server.workdir / "spans.jsonl")
    assert len(spans) >= 30, "trace sampling lost spans"
    assert all(s["name"] == "http.request" for s in spans)
    assert all(s["attrs"]["request_id"] for s in spans)

    merged = json.loads((server.workdir / "http-metrics.json").read_text(
        encoding="utf-8"))
    assert merged["counters"]["http_requests"] >= 400, \
        "merged metrics lost worker requests"


def test_slo_report_passes_on_the_history(server):
    (server.workdir / "slo.json").write_text(
        '{"availability": 0.5, "burn_rate_max": 100.0}\n',
        encoding="utf-8")
    _cli(server.workdir, "slo-report", "--history", "history.jsonl",
         "--slo", "slo.json")
