"""The HTTP accounting contract under concurrent keep-alive load.

Handler threads share one registry.  ``AnnotationHTTPServer`` updates
``http_requests``, ``http_responses`` and ``http_request_seconds`` as one
locked update and snapshots under the same lock (see
:mod:`repro.obs.metrics`), so after a burst the counters equal exactly
what the clients saw: none lost, none torn.
"""

import http.client
import json
import sys
import threading
import time
from collections import Counter

from repro.bench import serve_conventions
from repro.core.io import conventions_to_json
from repro.serve.http import AnnotationHTTPServer, HttpConfig, \
    create_listener
from repro.serve.service import AnnotationService

CLIENTS = 4
REQUESTS_PER_CLIENT = 150

#: (method, path, body): a 200, a 400, a 404 and a 405, in rotation.
MIX = [
    ("POST", "/annotate",
     json.dumps({"hostname": "as1000-et0.pop0.svc00-bench.org"})),
    ("POST", "/annotate", "{not json"),
    ("GET", "/nope", None),
    ("GET", "/annotate", None),
]


def _client(port, offset, seen, errors):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for i in range(REQUESTS_PER_CLIENT):
            method, path, body = MIX[(i + offset) % len(MIX)]
            conn.request(method, path, body=body)
            response = conn.getresponse()
            response.read()
            seen[response.status] += 1
    except Exception as exc:  # reported by the test, never lost
        errors.append(exc)
    finally:
        conn.close()


def test_http_counters_equal_what_clients_saw():
    service = AnnotationService.from_json(
        conventions_to_json(serve_conventions()))
    service.warm()
    config = HttpConfig(port=0)
    server = AnnotationHTTPServer(service, config,
                                  sock=create_listener(config.host, 0))
    serving = threading.Thread(target=server.serve_forever,
                               kwargs={"poll_interval": 0.01},
                               daemon=True)
    serving.start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        seen = [Counter() for _ in range(CLIENTS)]
        errors = []
        clients = [threading.Thread(target=_client,
                                    args=(server.server_port, k, seen[k],
                                          errors))
                   for k in range(CLIENTS)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(60)
        assert not any(thread.is_alive() for thread in clients)
        assert not errors, errors
        sent = CLIENTS * REQUESTS_PER_CLIENT
        # A request is counted just after its reply is written.
        deadline = time.monotonic() + 10
        while True:
            stats = server.stats()
            if stats["counters"].get("http_requests", 0) >= sent \
                    or time.monotonic() > deadline:
                break
            time.sleep(0.005)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
        serving.join(5)
    assert not serving.is_alive()
    by_status = sum(seen, Counter())
    assert sorted(by_status) == [200, 400, 404, 405]
    responses = stats["labelled"]["http_responses"]
    assert stats["counters"]["http_requests"] == sent
    assert sum(responses.values()) == sent
    assert responses == {str(status): count
                         for status, count in by_status.items()}
    assert stats["histograms"]["http_request_seconds"]["count"] == sent
