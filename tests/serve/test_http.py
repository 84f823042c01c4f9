"""Tests for the network annotation server (:mod:`repro.serve.http`).

Two tiers: fast in-thread servers (an :class:`AnnotationHTTPServer`
running on a background thread inside this process) exercise the
endpoint contract -- routing, guards, keep-alive, backpressure, drain
state, admin ops and their op log -- and a handful of real-process
tests boot the whole pre-fork tree through :class:`ServerProcess` to
verify fork inheritance, merged ``/metrics``, admin ops reaching every
worker by generation (over HTTP and on SIGHUP), and the graceful
SIGTERM drain actually exiting 0.
"""

import http.client
import json
import os
import signal
import socket
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.bench import serve_conventions, zipf_hostnames
from repro.core.io import conventions_to_json
from repro.serve.http import (
    AnnotationHTTPServer,
    HttpConfig,
    MetricsDir,
    OpLog,
    ServerProcess,
    create_listener,
    wait_applied,
    wait_ready,
)
from repro.serve.service import AnnotationService


@pytest.fixture(scope="module")
def conventions_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("http") / "conventions.json"
    path.write_text(conventions_to_json(serve_conventions()),
                    encoding="utf-8")
    return str(path)


@contextmanager
def live_server(conventions_path, metrics_dir=None, **overrides):
    """An in-thread server on an ephemeral port; yields (server, port)."""
    service = AnnotationService.from_json_file(conventions_path)
    service.warm()
    config = HttpConfig(port=0, conventions=conventions_path,
                        **overrides)
    sock = create_listener(config.host, 0)
    server = AnnotationHTTPServer(service, config, sock=sock,
                                  metrics_dir=metrics_dir)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server, server.server_port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def request(port, method, path, payload=None, host="127.0.0.1"):
    """One request on a fresh connection; returns (status, headers, body).

    ``body`` is parsed JSON when the response claims JSON, else text.
    """
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        headers = dict(response.getheaders())
        if "application/json" in headers.get("Content-Type", ""):
            return response.status, headers, json.loads(raw)
        return response.status, headers, raw.decode("utf-8", "replace")
    finally:
        conn.close()


def merged_counter(port, name):
    """One counter from the fleet's merged ``/metrics`` exposition."""
    status, _, prom = request(port, "GET", "/metrics")
    assert status == 200
    for line in prom.splitlines():
        if line.startswith("repro_%s " % name):
            return int(float(line.split()[1]))
    return 0


def raw_request(port, data, host="127.0.0.1"):
    """Send raw bytes; return the status line's code (0 on no reply)."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
        if not reply.startswith(b"HTTP/"):
            return 0
        return int(reply.split(b" ", 2)[1])


class TestEndpoints:
    def test_single_annotate_matches_service(self, conventions_path):
        service = AnnotationService.from_json_file(conventions_path)
        with live_server(conventions_path) as (server, port):
            for hostname in zipf_hostnames(n=20, universe=10):
                status, _, body = request(port, "POST", "/annotate",
                                          {"hostname": hostname})
                assert status == 200
                assert body["hostname"] == hostname
                assert body["asn"] == service.annotate_one(hostname)

    def test_batch_matches_annotate_batch(self, conventions_path):
        hostnames = zipf_hostnames(n=200, universe=40)
        service = AnnotationService.from_json_file(conventions_path)
        with live_server(conventions_path) as (server, port):
            status, _, body = request(port, "POST", "/annotate/batch",
                                      {"hostnames": hostnames})
        assert status == 200
        assert body["count"] == len(hostnames)
        assert body["asns"] == service.annotate_batch(hostnames)

    def test_keep_alive_reuses_one_connection(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=10)
            try:
                for hostname in zipf_hostnames(n=5, universe=5):
                    conn.request("POST", "/annotate",
                                 body=json.dumps({"hostname": hostname}))
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                    assert not response.will_close
            finally:
                conn.close()

    def test_healthz_and_readyz(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            status, _, body = request(port, "GET", "/healthz")
            assert (status, body["status"]) == (200, "ok")
            status, _, body = request(port, "GET", "/readyz")
            assert (status, body["status"]) == (200, "ready")

    def test_metrics_exposes_prometheus_counters(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            request(port, "POST", "/annotate",
                    {"hostname": "svc01-bench.org"})
            # The http_* instruments are updated *after* the annotate
            # response hits the wire (latency includes the send), so a
            # scrape racing that finally-block may miss them once.
            deadline = time.monotonic() + 5.0
            while True:
                status, headers, body = request(port, "GET", "/metrics")
                if ("repro_http_request_seconds_bucket" in body
                        or time.monotonic() >= deadline):
                    break
                time.sleep(0.01)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_requests" in body
        assert "repro_http_requests" in body
        assert "repro_http_request_seconds_bucket" in body


class TestGuards:
    def test_unknown_path_is_404(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            status, _, _ = request(port, "GET", "/nope")
            assert status == 404

    def test_wrong_method_is_405_with_allow(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            status, headers, _ = request(port, "GET", "/annotate")
            assert status == 405
            assert "POST" in headers["Allow"]
            status, _, _ = request(port, "POST", "/healthz",
                                   {"x": 1})
            assert status == 405

    def test_missing_content_length_is_411(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            status = raw_request(
                port, b"POST /annotate HTTP/1.1\r\n"
                      b"Host: t\r\nConnection: close\r\n\r\n")
            assert status == 411

    def test_bad_json_and_bad_shape_are_400(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            status = raw_request(
                port, b"POST /annotate HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: 3\r\n\r\n{{{")
            assert status == 400
            status, _, _ = request(port, "POST", "/annotate",
                                   {"host": "wrong-key"})
            assert status == 400
            status, _, _ = request(port, "POST", "/annotate/batch",
                                   {"hostnames": "not-a-list"})
            assert status == 400

    def test_non_utf8_body_is_400(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            status = raw_request(
                port, b"POST /annotate HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: 4\r\n\r\n\xff\xfe\xfd\xfc")
            assert status == 400

    def test_oversized_body_is_413_and_closes(self, conventions_path):
        with live_server(conventions_path, max_body=64) as (server, port):
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=10)
            try:
                conn.request("POST", "/annotate/batch", body=json.dumps(
                    {"hostnames": ["x" * 40] * 10}))
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 413
                assert body["max_body"] == 64
                assert response.will_close
            finally:
                conn.close()

    def test_inflight_budget_gives_429(self, conventions_path):
        with live_server(conventions_path, max_inflight=1) as \
                (server, port):
            assert server.try_begin_request()  # hold the only slot
            try:
                status, headers, _ = request(
                    port, "POST", "/annotate", {"hostname": "a.b"})
                assert status == 429
                assert headers["Retry-After"] == "1"
            finally:
                server.end_request()
            status, _, _ = request(port, "POST", "/annotate",
                                   {"hostname": "a.b"})
            assert status == 200

    def test_health_endpoints_ignore_inflight_budget(self,
                                                     conventions_path):
        with live_server(conventions_path, max_inflight=1) as \
                (server, port):
            assert server.try_begin_request()
            try:
                status, _, _ = request(port, "GET", "/healthz")
                assert status == 200
            finally:
                server.end_request()


class TestDrainState:
    def test_draining_flips_readyz_and_closes_connections(
            self, conventions_path):
        with live_server(conventions_path) as (server, port):
            server.draining.set()
            status, headers, _ = request(port, "GET", "/readyz")
            assert status == 503
            assert headers["Connection"] == "close"
            status, _, body = request(port, "GET", "/healthz")
            assert status == 200
            assert body["draining"] is True
            status, _, _ = request(port, "POST", "/annotate",
                                   {"hostname": "a.b"})
            assert status == 200  # in-flight-style work still answers


class TestReload:
    def test_inline_reload_reflects_new_conventions(self, tmp_path):
        path = tmp_path / "conv.json"
        path.write_text(conventions_to_json(serve_conventions()),
                        encoding="utf-8")
        with live_server(str(path)) as (server, port):
            _, _, before = request(port, "POST", "/annotate",
                                   {"hostname": "svc01-bench.org"})
            path.write_text(
                conventions_to_json(serve_conventions(n_suffixes=8)),
                encoding="utf-8")
            status, _, body = request(port, "POST", "/admin/reload", {})
            assert status == 200
            assert body["reloaded"] is True
            assert body["suffixes"] == 8
            assert server.service.metrics.counter("reloads").value == 1

    def test_reload_with_other_path_is_400(self, conventions_path):
        with live_server(conventions_path) as (server, port):
            status, _, body = request(port, "POST", "/admin/reload",
                                      {"conventions": "/elsewhere.json"})
            assert status == 400
            assert body["conventions"] == conventions_path

    def test_reload_without_a_conventions_file_is_409(self,
                                                      conventions_path):
        with live_server(conventions_path) as (server, port):
            server.config.conventions = None
            status, _, body = request(port, "POST", "/admin/reload", {})
            assert status == 409
            assert "nothing to reload" in body["error"]
            assert server.op_log.head() == 0  # nothing was appended

    def test_reload_failure_keeps_old_conventions(self, tmp_path):
        path = tmp_path / "conv.json"
        path.write_text(conventions_to_json(serve_conventions()),
                        encoding="utf-8")
        with live_server(str(path)) as (server, port):
            hostname = "svc01-bench.org"
            _, _, before = request(port, "POST", "/annotate",
                                   {"hostname": hostname})
            path.write_text("not json at all", encoding="utf-8")
            status, _, _ = request(port, "POST", "/admin/reload", {})
            assert status == 500
            _, _, after = request(port, "POST", "/annotate",
                                  {"hostname": hostname})
            assert after == before


class TestMetricsDir:
    def test_flush_and_merge(self, tmp_path):
        metrics = MetricsDir(str(tmp_path))
        metrics.flush(0, {"counters": {"requests": 3},
                          "memo": {"size": 1}})
        metrics.flush(1, {"counters": {"requests": 4}})
        metrics.flush(1, {"counters": {"requests": 5}})  # overwrites
        merged = metrics.merged()
        assert merged["counters"]["requests"] == 8

    def test_unreadable_snapshots_are_skipped(self, tmp_path):
        metrics = MetricsDir(str(tmp_path))
        metrics.flush(0, {"counters": {"requests": 2}})
        (tmp_path / "worker-1.json").write_text("{torn",
                                                encoding="utf-8")
        assert metrics.merged()["counters"]["requests"] == 2


class TestOpLog:
    @pytest.mark.parametrize("in_dir", [True, False])
    def test_concurrent_appends_get_distinct_gap_free_generations(
            self, tmp_path, in_dir):
        log = OpLog(str(tmp_path) if in_dir else None)
        writers = 8  # more writers than cores
        start = threading.Barrier(writers)
        taken = [[] for _ in range(writers)]

        def append(slot):
            start.wait()
            for _ in range(10):
                taken[slot].append(log.append("reload"))

        threads = [threading.Thread(target=append, args=(slot,))
                   for slot in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(sum(taken, [])) == list(range(1, 81))
        assert log.head() == 80
        assert [generation for generation, _ in log.entries(78)] \
            == [79, 80]
        if in_dir:
            record = json.loads((tmp_path / "op-7.json").read_text())
            assert record["generation"] == 7
            assert record["op"] == "reload"
            assert not [name for name in os.listdir(tmp_path)
                        if name.startswith(".")]  # no temp file left

    def test_reconcile_applies_each_op_once(self, conventions_path,
                                            tmp_path):
        metrics_dir = MetricsDir(str(tmp_path))
        with live_server(conventions_path,
                         metrics_dir=metrics_dir) as (server, port):
            server.op_log.append("reload")
            server.op_log.append("reload")
            assert sorted(server.reconcile()) == [1, 2]
            assert server.reconcile() == {}
            assert server.service.metrics.counter("reloads").value == 2
            assert server.applied_generation == 2
        assert metrics_dir.stamped("applied_generation") == {0: 2}

    def test_single_process_status_reports_live_generation(
            self, conventions_path):
        with live_server(conventions_path) as (server, port):
            status, _, body = request(port, "POST", "/admin/reload", {})
            assert (status, body["generation"]) == (200, 1)
            _, _, payload = request(port, "GET", "/admin/status")
        assert payload["generation"] == 1
        assert payload["applied_generation"] == {"0": 1}
        assert payload["generation_skew"] == 0


class TestConfig:
    def test_validate_rejects_bad_values(self):
        for bad in (HttpConfig(workers=0), HttpConfig(port=70000),
                    HttpConfig(max_body=0), HttpConfig(max_inflight=0),
                    HttpConfig(drain_grace=-1.0)):
            with pytest.raises(ValueError):
                bad.validate()


class TestPreFork:
    """The real process tree: fork, merge, reload, drain."""

    def test_prefork_serves_merges_reloads_and_drains(
            self, conventions_path, tmp_path):
        metrics_out = tmp_path / "merged.json"
        config = HttpConfig(port=0, workers=2,
                            conventions=conventions_path,
                            metrics_out=str(metrics_out),
                            flush_interval=0.0)
        hostnames = zipf_hostnames(n=60, universe=20)
        service = AnnotationService.from_json_file(conventions_path)
        expected = service.annotate_batch(hostnames)
        with ServerProcess(conventions_to_json(serve_conventions()),
                           config) as server:
            # Every worker answers identically (kernel picks which).
            for _ in range(4):
                status, _, body = request(server.port, "POST",
                                          "/annotate/batch",
                                          {"hostnames": hostnames})
                assert status == 200
                assert body["asns"] == expected
            # /metrics merges both workers' registries: whichever
            # worker answers, the merged requests counter covers all
            # four batches above.
            status, _, prom = request(server.port, "GET", "/metrics")
            assert status == 200
            merged_requests = [
                line for line in prom.splitlines()
                if line.startswith("repro_requests ")]
            assert merged_requests
            assert int(float(merged_requests[0].split()[1])) \
                >= 4 * len(hostnames)
            # Reload over HTTP: this worker applies it before replying
            # (202 until the sibling has too), and both reach the
            # reload's generation.
            status, _, body = request(server.port, "POST",
                                      "/admin/reload", {})
            assert status in (200, 202)
            assert body["reloaded"] is True
            assert body["workers"] == 2
            payload = wait_applied("127.0.0.1", server.port,
                                   body["generation"], 2)
            assert payload["generation"] == body["generation"]
            code = server.stop()
        assert code == 0
        merged = json.loads(metrics_out.read_text(encoding="utf-8"))
        assert merged["counters"]["requests"] >= 4 * len(hostnames)

    def test_status_reports_generation_of_every_worker(
            self, conventions_path, tmp_path):
        path = tmp_path / "conv.json"
        path.write_text(conventions_to_json(serve_conventions()),
                        encoding="utf-8")
        config = HttpConfig(port=0, workers=2, conventions=str(path),
                            flush_interval=0.0)
        with ServerProcess(path.read_text(encoding="utf-8"),
                           config) as server:
            status, _, body = request(server.port, "POST",
                                      "/admin/reload", {})
            assert status in (200, 202)
            payload = wait_applied("127.0.0.1", server.port,
                                   body["generation"], 2)
            assert payload["generation"] == body["generation"] == 1
            assert payload["applied_generation"] == {"0": 1, "1": 1}
            assert payload["generation_skew"] == 0
            # A failed read is reported, not assumed away: 500 from
            # the answering worker, and every worker counts it.
            path.write_text("not json at all", encoding="utf-8")
            status, _, body = request(server.port, "POST",
                                      "/admin/reload", {})
            assert status == 500
            assert body["generation"] == 2
            assert "reload failed" in body["error"]
            wait_applied("127.0.0.1", server.port, 2, 2)
            assert merged_counter(server.port, "reload_errors") == 2
            assert server.stop() == 0

    def test_sighup_reloads_every_worker(self, conventions_path):
        config = HttpConfig(port=0, workers=2,
                            conventions=conventions_path)
        with ServerProcess(conventions_to_json(serve_conventions()),
                           config) as server:
            server.signal(signal.SIGHUP)
            payload = wait_applied("127.0.0.1", server.port, 1, 2)
            assert payload["generation"] == 1
            assert merged_counter(server.port, "reloads") == 2
            assert server.stop() == 0

    def test_a_reused_metrics_dir_is_not_replayed(self, conventions_path,
                                                  tmp_path):
        # A larger fleet's run left an op and a third worker's file.
        OpLog(str(tmp_path)).append("reload")
        MetricsDir(str(tmp_path)).flush(2, {"counters": {}}, 0)
        config = HttpConfig(port=0, workers=2,
                            conventions=conventions_path,
                            metrics_dir=str(tmp_path), flush_interval=0.0)
        with ServerProcess(conventions_to_json(serve_conventions()),
                           config) as server:
            payload = wait_applied("127.0.0.1", server.port, 1, 2)
            assert payload["generation"] == 1
            assert merged_counter(server.port, "reloads") == 0
            status, _, body = request(server.port, "POST",
                                      "/admin/reload", {})
            assert (status, body["generation"]) in ((200, 2), (202, 2))
            payload = wait_applied("127.0.0.1", server.port, 2, 2)
            assert payload["generation_skew"] == 0
            assert merged_counter(server.port, "reloads") == 2
            assert server.stop() == 0

    def test_sigterm_drain_grace_keeps_healthz_up(self, conventions_path):
        config = HttpConfig(port=0, workers=2, drain_grace=2.0,
                            drain_timeout=8.0,
                            conventions=conventions_path)
        with ServerProcess(conventions_to_json(serve_conventions()),
                           config) as server:
            assert request(server.port, "GET", "/readyz")[0] == 200
            server.signal(signal.SIGTERM)
            # Within the grace window the workers still accept:
            # readiness reports draining, liveness stays green.
            saw_draining = False
            for _ in range(50):
                try:
                    status, _, _ = request(server.port, "GET", "/readyz")
                except OSError:
                    break
                if status == 503:
                    saw_draining = True
                    health, _, body = request(server.port, "GET",
                                              "/healthz")
                    assert health == 200
                    assert body["draining"] is True
                    break
            assert saw_draining
            assert server.stop() == 0

    def test_single_worker_process_drains_cleanly(self, conventions_path):
        config = HttpConfig(port=0, workers=1,
                            conventions=conventions_path)
        with ServerProcess(conventions_to_json(serve_conventions()),
                           config) as server:
            status, _, body = request(server.port, "POST", "/annotate",
                                      {"hostname": "svc01-bench.org"})
            assert status == 200
            assert server.stop() == 0


# -- shadow deployment over HTTP --------------------------------------------


from repro.bench import shadow_divergence_case  # noqa: E402
from repro.serve.shadow import ShadowService  # noqa: E402


@pytest.fixture(scope="module")
def divergent_world(tmp_path_factory):
    """(primary_path, candidate_path, hostnames, expected) on disk."""
    primary, candidate, hostnames, expected = shadow_divergence_case(n=100)
    root = tmp_path_factory.mktemp("shadow")
    primary_path = root / "primary.json"
    candidate_path = root / "candidate.json"
    primary_path.write_text(conventions_to_json(primary),
                            encoding="utf-8")
    candidate_path.write_text(conventions_to_json(candidate),
                              encoding="utf-8")
    return str(primary_path), str(candidate_path), hostnames, expected


@contextmanager
def live_shadow_server(primary_path, candidate_path, **overrides):
    """An in-thread *shadow-mode* server, wrapped and loaded the same
    way ``_server_process_entry`` does it."""
    service = AnnotationService.from_json_file(primary_path)
    service.warm()
    shadow = ShadowService(service)
    shadow.load_candidate_file(candidate_path)
    config = HttpConfig(port=0, conventions=primary_path,
                        shadow=candidate_path, **overrides)
    sock = create_listener(config.host, 0)
    server = AnnotationHTTPServer(shadow, config, sock=sock)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server, server.server_port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


class TestShadowEndpoints:
    """Single-process shadow sequence: traffic -> report -> promote."""

    def test_load_report_promote_sequence(self, divergent_world):
        primary_path, candidate_path, hostnames, expected = \
            divergent_world
        primary_oracle = AnnotationService.from_json_file(primary_path)
        candidate_oracle = AnnotationService.from_json_file(
            candidate_path)
        with live_shadow_server(primary_path, candidate_path) as \
                (_server, port):
            # Shadowed traffic answers from the primary, byte-identical.
            status, _, body = request(port, "POST", "/annotate/batch",
                                      {"hostnames": hostnames})
            assert status == 200
            assert body["asns"] == primary_oracle.annotate_batch(
                hostnames)
            # The report carries the exact constructed divergence.
            status, _, report = request(port, "GET",
                                        "/admin/shadow/report")
            assert status == 200
            assert report["requests"] == len(hostnames)
            for cls, count in expected.items():
                assert report[cls] == count
            assert report["active"] is True
            assert report["promote_threshold"] is None
            # Promote: inline (single process) -> 200, and answers now
            # match a plain service over the candidate set.
            status, _, body = request(port, "POST",
                                      "/admin/shadow/promote", {})
            assert status == 200
            assert body["promoted"] is True
            assert body["suffixes"] == len(candidate_oracle.index)
            status, _, body = request(port, "POST", "/annotate/batch",
                                      {"hostnames": hostnames})
            assert status == 200
            assert body["asns"] == candidate_oracle.annotate_batch(
                hostnames)
            # The candidate slot is empty now: nothing left to promote.
            status, _, body = request(port, "POST",
                                      "/admin/shadow/promote", {})
            assert status == 409

    def test_promote_gate_refuses_above_threshold(self, divergent_world):
        primary_path, candidate_path, hostnames, _ = divergent_world
        primary_oracle = AnnotationService.from_json_file(primary_path)
        with live_shadow_server(primary_path, candidate_path,
                                promote_threshold=0.01) as (_server,
                                                            port):
            request(port, "POST", "/annotate/batch",
                    {"hostnames": hostnames})
            status, _, body = request(port, "POST",
                                      "/admin/shadow/promote", {})
            assert status == 409
            assert body["disagreement_fraction"] == pytest.approx(0.4)
            assert body["promote_threshold"] == 0.01
            # The refused promote changed nothing.
            status, _, body = request(port, "POST", "/annotate/batch",
                                      {"hostnames": hostnames})
            assert body["asns"] == primary_oracle.annotate_batch(
                hostnames)

    def test_shadow_reload_clears_the_ledger(self, divergent_world):
        primary_path, candidate_path, hostnames, _ = divergent_world
        with live_shadow_server(primary_path, candidate_path) as \
                (_server, port):
            request(port, "POST", "/annotate/batch",
                    {"hostnames": hostnames})
            status, _, body = request(port, "POST", "/admin/shadow", {})
            assert status == 200
            assert body["shadow"] is True
            status, _, report = request(port, "GET",
                                        "/admin/shadow/report")
            assert report["requests"] == 0

    def test_shadow_load_with_other_path_is_400(self, divergent_world):
        primary_path, candidate_path, _, _ = divergent_world
        with live_shadow_server(primary_path, candidate_path) as \
                (_server, port):
            status, _, body = request(port, "POST", "/admin/shadow",
                                      {"candidate": "/elsewhere.json"})
            assert status == 400
            assert body["candidate"] == candidate_path

    def test_shadow_verbs_409_without_shadow_mode(self,
                                                  conventions_path):
        with live_server(conventions_path) as (_server, port):
            assert request(port, "POST", "/admin/shadow", {})[0] == 409
            assert request(port, "POST", "/admin/shadow/promote",
                           {})[0] == 409
            # The report endpoint still answers (inactive, empty).
            status, _, report = request(port, "GET",
                                        "/admin/shadow/report")
            assert status == 200
            assert report["active"] is False


class TestShadowPreFork:
    """The real tree: per-worker ledgers merged, load/promote reaching
    every worker by generation, post-promote answers identical across
    workers."""

    def test_shadow_sequence_across_workers(self, divergent_world,
                                            tmp_path):
        primary_path, candidate_path, hostnames, expected = \
            divergent_world
        primary_oracle = AnnotationService.from_json_file(primary_path)
        candidate_oracle = AnnotationService.from_json_file(
            candidate_path)
        primary_json = open(primary_path, encoding="utf-8").read()
        config = HttpConfig(port=0, workers=2,
                            conventions=primary_path,
                            shadow=candidate_path,
                            flush_interval=0.0,
                            metrics_out=str(tmp_path / "merged.json"))
        with ServerProcess(primary_json, config) as server:
            expected_asns = primary_oracle.annotate_batch(hostnames)
            for _ in range(2):
                status, _, body = request(server.port, "POST",
                                          "/annotate/batch",
                                          {"hostnames": hostnames})
                assert status == 200
                assert body["asns"] == expected_asns
            # The merged report sums both workers' ledgers exactly
            # (whichever workers served, 2 batches were shadowed).
            # Workers flush *after* responding, so poll until the
            # sibling's last flush lands (bounded by the flush loop).
            deadline = time.time() + 10
            report = None
            while time.time() < deadline:
                status, _, report = request(server.port, "GET",
                                            "/admin/shadow/report")
                assert status == 200
                assert report["active"] is True
                if report["requests"] == 2 * len(hostnames):
                    break
                time.sleep(0.1)
            assert report["requests"] == 2 * len(hostnames)
            for cls, count in expected.items():
                assert report[cls] == 2 * count
            # Promote: once every worker has applied its generation,
            # every batch answers from the candidate set.
            status, _, body = request(server.port, "POST",
                                      "/admin/shadow/promote", {})
            assert status in (200, 202)
            assert body["promoted"] is True
            assert body["workers"] == 2
            wait_applied("127.0.0.1", server.port, body["generation"], 2)
            want = candidate_oracle.annotate_batch(hostnames)
            for _ in range(10):
                status, _, batch = request(server.port, "POST",
                                           "/annotate/batch",
                                           {"hostnames": hostnames})
                assert status == 200
                assert batch["asns"] == want
            assert server.stop() == 0

    def test_prefork_promote_gate_refuses(self, divergent_world):
        primary_path, candidate_path, hostnames, _ = divergent_world
        primary_json = open(primary_path, encoding="utf-8").read()
        config = HttpConfig(port=0, workers=2,
                            conventions=primary_path,
                            shadow=candidate_path,
                            flush_interval=0.0,
                            promote_threshold=0.05)
        with ServerProcess(primary_json, config) as server:
            request(server.port, "POST", "/annotate/batch",
                    {"hostnames": hostnames})
            # Wait for the serving worker's post-response flush to
            # land so the merged gate sees a non-empty ledger.
            deadline = time.time() + 10
            while time.time() < deadline:
                _, _, report = request(server.port, "GET",
                                       "/admin/shadow/report")
                if report["requests"] >= len(hostnames):
                    break
                time.sleep(0.1)
            status, _, body = request(server.port, "POST",
                                      "/admin/shadow/promote", {})
            assert status == 409
            assert body["disagreement_fraction"] > 0.05
            assert server.stop() == 0
