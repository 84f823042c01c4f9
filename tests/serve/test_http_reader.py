"""The annotation server's own HTTP/1.1 request reader, on and off the wire.

``AnnotationHandler._read_head`` replaces the stdlib's
``BaseHTTPRequestHandler.parse_request`` + ``http.client.parse_headers``
(the ``email`` feed parser).  Three tiers:

* a hypothesis property: for well-formed request heads the values the
  handler reads (``X-Request-Id``, ``Content-Length``), the request line
  and the keep-alive and ``100 Continue`` decisions equal what the
  stdlib reader gives on the same bytes -- the stdlib reader is the
  reference, called inside the test;
* malformed and oversized heads (400/414/431/501/505): each is refused
  with a JSON reply that closes the connection and is counted like any
  other response, and a fresh connection is still served;
* wire paths over raw sockets: ``Expect: 100-continue``, pipelining,
  connection close and keep-alive, the 99/100-field boundary.
"""

import io
import json
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import serve_conventions
from repro.core.io import conventions_to_json
from repro.serve.http import (
    AnnotationHandler,
    AnnotationHTTPServer,
    HttpConfig,
    create_listener,
)
from repro.serve.service import AnnotationService

HOSTNAME = "as1000-et0.pop0.svc00-bench.org"


# -- the reader against the stdlib reference ---------------------------------


class _StdlibReference(BaseHTTPRequestHandler):
    """The parent's reader: stdlib ``parse_request`` over a byte buffer."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass


def _detached(cls, raw):
    """A handler of ``cls`` reading ``raw`` (after its request line)."""
    handler = cls.__new__(cls)
    line, _, rest = raw.partition(b"\n")
    handler.raw_requestline = line + b"\n"
    handler.rfile = io.BytesIO(rest)
    handler.wfile = io.BytesIO()
    return handler


def stdlib_read(raw):
    ref = _detached(_StdlibReference, raw)
    assert ref.parse_request()
    return {
        "command": ref.command,
        "path": ref.path,
        "request_version": ref.request_version,
        "x-request-id": ref.headers.get("X-Request-Id"),
        "content-length": ref.headers.get("Content-Length"),
        "close": ref.close_connection,
        "continue": b"100 Continue" in ref.wfile.getvalue(),
    }


def lean_read(raw):
    handler = _detached(AnnotationHandler, raw)
    handler.headers = {}
    words = str(handler.raw_requestline, "iso-8859-1").split()
    assert handler._read_head(words) is None
    return {
        "command": handler.command,
        "path": handler.path,
        "request_version": handler.request_version,
        "x-request-id": handler.headers.get("x-request-id"),
        "content-length": handler.headers.get("content-length"),
        "close": handler.close_connection,
        "continue": b"100 Continue" in handler.wfile.getvalue(),
    }


def _any_case(name):
    return st.lists(st.booleans(), min_size=len(name),
                    max_size=len(name)).map(
        lambda upper: "".join(c.upper() if u else c.lower()
                              for c, u in zip(name, upper)))


blank = st.sampled_from(["", " ", "\t", "  ", " \t "])
#: Printable ASCII: the stdlib's ``email`` parser splits lines on more
#: than CR and LF (form feed, ``\x1c``...), so values stay clear of those.
visible = st.text(alphabet=[chr(c) for c in range(0x21, 0x7f)],
                  min_size=1, max_size=12)
value_text = st.builds(lambda a, b: a + b, visible,
                       st.sampled_from(["", " and more", ":x"]))
token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=10).filter(
    lambda name: name.lower() not in ("content-length", "connection",
                                      "expect", "x-request-id"))


@st.composite
def request_heads(draw):
    """Well-formed request heads and the bytes they encode to."""
    length = str(draw(st.integers(0, 10 ** 6)))
    values = {
        "Content-Length": st.just(length),
        "Connection": st.sampled_from(["close", "keep-alive", "Close",
                                       "KEEP-ALIVE", "upgrade"]),
        "Expect": st.sampled_from(["100-continue", "100-Continue",
                                   "something-else"]),
        "X-Request-Id": visible,
    }
    kinds = st.sampled_from(sorted(values) + ["other"])
    fields = []
    for kind in draw(st.lists(kinds, max_size=12)):
        if kind == "other":
            name, value = draw(token), draw(value_text)
        else:
            name, value = draw(_any_case(kind)), draw(values[kind])
        fields.append("%s:%s%s%s%s" % (
            name, draw(blank), value, draw(blank),
            draw(st.sampled_from(["\r\n", "\n"]))))
    line = "%s %s %s\r\n" % (
        draw(st.sampled_from(["GET", "POST"])),
        draw(st.sampled_from(["/annotate", "/healthz", "/x?y=1"])),
        draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"])))
    return (line + "".join(fields) + "\r\n").encode("latin-1")


@settings(max_examples=300, deadline=None)
@given(raw=request_heads())
@example(raw=b"POST /annotate HTTP/1.1\r\nx-request-ID: one\r\n"
             b"X-Request-Id: two\r\nContent-Length: 5\r\n"
             b"content-length:5 \r\n\r\n")
def test_reader_matches_stdlib_on_well_formed_heads(raw):
    assert lean_read(raw) == stdlib_read(raw)


# -- in-thread server and raw-socket helpers ---------------------------------


@contextmanager
def live_server():
    service = AnnotationService.from_json(
        conventions_to_json(serve_conventions()))
    service.warm()
    config = HttpConfig(port=0)
    server = AnnotationHTTPServer(service, config,
                                  sock=create_listener(config.host, 0))
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
    assert not thread.is_alive()


def read_response(reader):
    """``(status, headers, body)`` of one response off ``reader``."""
    status = int(reader.readline().split(b" ", 2)[1])
    headers = {}
    while True:
        line = reader.readline()
        assert line, "connection closed mid-head"
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


@contextmanager
def connection(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        with sock.makefile("rb") as reader:
            yield sock, reader


def exchange(port, data):
    """Send ``data``; the first response, and whether the server then
    closed the connection."""
    with connection(port) as (sock, reader):
        sock.sendall(data)
        status, headers, body = read_response(reader)
        closed = reader.read(1) == b""
    return status, headers, body, closed


def post(path, payload, extra=b""):
    body = json.dumps(payload).encode("utf-8")
    return (b"POST %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n"
            % (path.encode("ascii"), extra, len(body))) + body


def assert_served(port):
    """A fresh connection still gets a keep-alive 200."""
    with connection(port) as (sock, reader):
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        status, headers, body = read_response(reader)
    assert status == 200 and json.loads(body)["status"] == "ok"
    assert "connection" not in headers


def wait_counted(server, count, timeout=5.0):
    """The server's snapshot once ``count`` requests are accounted (a
    request is counted just after its reply is written)."""
    deadline = time.monotonic() + timeout
    while True:
        stats = server.stats()
        if stats["counters"].get("http_requests", 0) >= count \
                or time.monotonic() > deadline:
            return stats
        time.sleep(0.005)


# -- malformed heads ---------------------------------------------------------

MALFORMED = [
    (b"GET /healthz HTTP/1.1\r\nHost: t\r\nno colon here\r\n\r\n",
     400, "malformed header line"),
    (b"GET /healthz HTTP/1.1\r\nBad Name: x\r\n\r\n",
     400, "malformed header line"),
    (b"GET /healthz HTTP/1.1\r\nX-A: b\r\n  folded\r\n\r\n",
     400, "obsolete line folding"),
    (b"GET /healthz HTTP/1.1\r\nX-A: b\r\n\tfolded\r\n\r\n",
     400, "obsolete line folding"),
    (b"POST /annotate HTTP/1.1\r\nContent-Length: 2\r\n"
     b"Content-Length: 3\r\n\r\n{}", 400, "conflicting Content-Length"),
    (b"GET /healthz HTTP/1.1\r\nX-A: b\rc\r\n\r\n",
     400, "malformed header line"),
    (b"GET /healthz HTTP/1.x\r\n\r\n", 400, "bad request version"),
    (b"GET /healthz HTTP/1.1.1\r\n\r\n", 400, "bad request version"),
    (b"GET /a b HTTP/1.1\r\n\r\n", 400, "bad request syntax"),
    (b"POST /annotate\r\n\r\n", 400, "bad HTTP/0.9 request type"),
    (b"GET /healthz HTTP/2.0\r\n\r\n", 505, "not supported"),
    (b"GET /healthz HTTP/1.1\r\n" + b"X-Filler: y\r\n" * 101 + b"\r\n",
     431, "more than 100 header lines"),
    (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"y" * 65537 + b"\r\n\r\n",
     431, "header line over 65536 bytes"),
    (b"PUT /annotate HTTP/1.1\r\n\r\n", 501, "unsupported method"),
    (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414, "request line"),
]


def test_malformed_heads_get_counted_json_and_close():
    with live_server() as (server, port):
        for raw, want, error in MALFORMED:
            status, headers, body, closed = exchange(port, raw)
            assert (status, headers["content-type"]) \
                == (want, "application/json"), raw[:40]
            assert error in json.loads(body)["error"]
            assert headers["connection"] == "close" and closed
            assert len(headers["x-request-id"]) == 16
            assert_served(port)
        stats = wait_counted(server, 2 * len(MALFORMED))
    counts = {}
    for _, want, _ in MALFORMED:
        counts[str(want)] = counts.get(str(want), 0) + 1
    counts["200"] = len(MALFORMED)  # the assert_served probes
    assert stats["labelled"]["http_responses"] == counts
    assert stats["counters"]["http_requests"] == 2 * len(MALFORMED)


def test_blank_request_line_closes_without_a_reply():
    with live_server() as (server, port):
        with connection(port) as (sock, reader):
            sock.sendall(b"\r\n")
            assert reader.read(1) == b""
        assert_served(port)


# -- wire paths --------------------------------------------------------------


def test_expect_100_continue_then_the_answer():
    body = json.dumps({"hostname": HOSTNAME}).encode("utf-8")
    with live_server() as (server, port):
        with connection(port) as (sock, reader):
            sock.sendall(b"POST /annotate HTTP/1.1\r\nHost: t\r\n"
                         b"Expect: 100-continue\r\nContent-Length: %d"
                         b"\r\n\r\n" % len(body))
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)  # only now: the server asked for it
            status, headers, reply = read_response(reader)
        assert status == 200
        assert json.loads(reply) == {
            "hostname": HOSTNAME,
            "asn": server.service.annotate_one(HOSTNAME)}
        assert_served(port)


def test_pipelined_requests_are_answered_in_order():
    with live_server() as (server, port):
        with connection(port) as (sock, reader):
            sock.sendall(post("/annotate", {"hostname": HOSTNAME},
                              b"X-Request-Id: first\r\n")
                         + b"GET /nope HTTP/1.1\r\nX-Request-Id: second"
                           b"\r\n\r\n")
            first = read_response(reader)
            second = read_response(reader)
        assert (first[0], first[1]["x-request-id"]) == (200, "first")
        assert json.loads(first[2])["hostname"] == HOSTNAME
        assert (second[0], second[1]["x-request-id"]) == (404, "second")
        assert_served(port)


@pytest.mark.parametrize("raw", [
    b"GET /healthz HTTP/1.0\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
])
def test_close_requests_close_the_connection(raw):
    with live_server() as (server, port):
        status, headers, _, closed = exchange(port, raw)
        assert (status, headers["connection"], closed) \
            == (200, "close", True)
        assert_served(port)


def test_http10_keep_alive_stays_open():
    with live_server() as (server, port):
        with connection(port) as (sock, reader):
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.0\r\n"
                             b"Connection: keep-alive\r\n\r\n")
                status, headers, _ = read_response(reader)
                assert status == 200 and "connection" not in headers


def test_stdlib_header_count_limit():
    """99 fields pass; the 100th makes the head 101 lines, over the
    stdlib's 100 (it counts the blank line that ends the head)."""
    with live_server() as (server, port):
        for fields, want in ((99, 200), (100, 431)):
            status, _, _, _ = exchange(
                port, b"GET /healthz HTTP/1.0\r\n"
                      + b"X-Filler: y\r\n" * fields + b"\r\n")
            assert status == want


def test_response_head_carries_the_stdlib_header_set():
    with live_server() as (server, port):
        with connection(port) as (sock, reader):
            sock.sendall(b"GET /nope HTTP/1.1\r\n\r\n")
            status, headers, body = read_response(reader)
    assert status == 404
    assert headers["server"].startswith("repro-serve-http/1.0 Python/")
    assert headers["date"].endswith(" GMT")
    assert int(headers["content-length"]) == len(body)
    assert set(headers) == {"server", "date", "content-type",
                            "content-length", "x-request-id"}
