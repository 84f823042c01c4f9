"""Structured JSON line logging for the serving stack.

One event per line, stdlib only, shaped for machines first:

``{"event": ..., "ts": ..., "level": ..., "worker_id": ..., <attrs>}``

``repro.serve.http`` uses two instances of this: a *diagnostics*
logger on stderr that replaces the old bare ``print(..., file=
sys.stderr)`` worker messages (reload failures, shadow-load failures,
worker exits) with greppable events, and an opt-in *access log*
(``--access-log PATH|-``) emitting one line per request with method,
path, status, bytes, latency, and the request id echoed in the
``X-Request-Id`` response header.

Design constraints that shaped the implementation:

* Every ``write`` call carries only **whole** ``\\n``-terminated
  lines.  In the pre-fork server multiple worker processes append to
  the same access-log file; POSIX ``O_APPEND`` plus whole-lines-per-
  write keeps their lines intact instead of interleaved.  File targets
  are opened unbuffered (``"ab", buffering=0``) so each write is
  exactly one syscall -- no text/buffer layers that could split a line
  mid-way.
* The access log rides the request path, so there is a **buffered**
  mode (``buffered=True``): ``log()`` only builds the record and
  enqueues it (a couple of dict ops), and a drainer thread JSON-
  encodes pending records and writes them as one batch of whole lines
  every ``flush_seconds`` (or sooner when a batch builds up).  That
  keeps the hot-path cost per request to ~a microsecond -- measured
  and budgeted by the ``obs_window`` bench section -- at the usual
  access-log price: the tail of the log rides ~``flush_seconds``
  behind the traffic (``flush()``/``close()`` drain it synchronously),
  and a drainer that cannot keep up drops records beyond
  ``buffer_records`` rather than stall requests (counted in
  ``dropped``, reported as a ``log_dropped`` event when it happens).
  Rare diagnostics use the default synchronous mode.
* ``json.dumps(..., default=str)``: a surprising attr value (an
  exception object, a Path) degrades to its string form rather than
  killing the request that tried to log it.
* Key order is stable (``event`` first, then ``ts``/``level``/
  ``worker_id``, then attrs in call order) so the logs are pleasant to
  eyeball even before they reach a query engine.
* :data:`NULL_LOG` mirrors ``trace.NULL_TRACER``: call sites log
  unconditionally and configuration decides whether anything happens.
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import time
from collections import deque
from typing import Callable, Dict, IO, Optional

LEVELS = ("debug", "info", "warning", "error")

#: Buffered mode: pending records that trigger an early drain (below)
#: and the default cap beyond which records are dropped, not queued.
DRAIN_BATCH = 512
DEFAULT_BUFFER_RECORDS = 65536


def new_request_id() -> str:
    """A fresh opaque request id: 16 hex chars, 64 random bits."""
    return os.urandom(8).hex()


class JsonLogger:
    """Writes one JSON object per line to a stream or file.

    ``worker_id`` is bound at construction (each forked worker builds
    its own logger) and stamped on every record; ``None`` means the
    parent/supervisor.  Thread-safe: the serving threads and the flush
    loop share one instance.

    ``buffered=True`` turns on the deferred hot-path mode described in
    the module docstring: ``log()`` enqueues, a daemon drainer thread
    encodes and writes batches of whole lines.  The drainer starts at
    construction, so build buffered loggers *after* any fork (the
    pre-fork workers each build their own).
    """

    def __init__(self, stream: Optional[IO[str]] = None,
                 path: Optional[str] = None,
                 worker_id: Optional[int] = None,
                 clock: Callable[[], float] = time.time,
                 buffered: bool = False,
                 flush_seconds: float = 0.05,
                 buffer_records: int = DEFAULT_BUFFER_RECORDS,
                 drain_batch: int = DRAIN_BATCH) -> None:
        if stream is not None and path is not None:
            raise ValueError("pass a stream or a path, not both")
        self._owns_stream = False
        if path is not None:
            stream = open(path, "ab", buffering=0)
            self._owns_stream = True
        self._stream = stream if stream is not None else sys.stderr
        self._binary = isinstance(self._stream,
                                  (io.RawIOBase, io.BufferedIOBase))
        self.worker_id = worker_id
        self._clock = clock
        self._lock = threading.Lock()
        #: Records dropped because the buffer was full (buffered mode).
        self.dropped = 0
        self._dropped_reported = 0
        self._pending: Optional[deque] = None
        self._closed = False
        if buffered:
            self._pending = deque()
            self._flush_seconds = flush_seconds
            self._buffer_records = buffer_records
            self._drain_batch = drain_batch
            self._wake = threading.Event()
            self._drainer = threading.Thread(
                target=self._drain_loop, name="jsonlog-drain",
                daemon=True)
            self._drainer.start()

    @property
    def enabled(self) -> bool:
        return True

    def log(self, event: str, level: str = "info",
            **attrs: object) -> Dict[str, object]:
        """Emit one event line; returns the record (handy in tests)."""
        if level not in LEVELS:
            raise ValueError("unknown log level %r (use one of %s)"
                             % (level, "/".join(LEVELS)))
        record: Dict[str, object] = {
            "event": event,
            "ts": round(self._clock(), 6),
            "level": level,
            "worker_id": self.worker_id,
        }
        record.update(attrs)
        if self._pending is not None:
            with self._lock:
                if len(self._pending) >= self._buffer_records:
                    self.dropped += 1
                else:
                    self._pending.append(record)
                    if len(self._pending) >= self._drain_batch:
                        self._wake.set()
            return record
        self._write_lines([record])
        return record

    def _write_lines(self, records) -> None:
        """Encode ``records`` and write them as one whole-lines batch."""
        try:
            # Fast path: JSON-native values only (the usual case).
            data = "\n".join(map(json.dumps, records)) + "\n"
        except (TypeError, ValueError):
            data = "\n".join(json.dumps(record, default=str)
                             for record in records) + "\n"
        with self._lock:
            try:
                if self._binary:
                    # Unbuffered file target: one write, one syscall.
                    self._stream.write(data.encode("utf-8"))
                else:
                    self._stream.write(data)
                    self._stream.flush()
            except (ValueError, OSError):
                pass  # a closed stderr must never take a request down

    def _drain(self) -> None:
        """Flush every pending record to the stream (buffered mode)."""
        with self._lock:
            if not self._pending:
                batch = []
            else:
                batch = list(self._pending)
                self._pending.clear()
            dropped = self.dropped - self._dropped_reported
            self._dropped_reported = self.dropped
        if dropped:
            batch.append({"event": "log_dropped",
                          "ts": round(self._clock(), 6),
                          "level": "warning",
                          "worker_id": self.worker_id,
                          "dropped": dropped})
        if batch:
            self._write_lines(batch)

    def _drain_loop(self) -> None:
        while True:
            self._wake.wait(self._flush_seconds)
            self._wake.clear()
            self._drain()
            if self._closed:
                return

    def flush(self) -> None:
        """Synchronously write anything buffered (no-op when sync)."""
        if self._pending is not None:
            self._drain()

    def close(self) -> None:
        """Drain, stop the drainer, and close an owned file."""
        if self._pending is not None and not self._closed:
            self._closed = True
            self._wake.set()
            self._drainer.join(2.0)
            self._drain()  # anything that raced past the drainer
        if self._owns_stream:
            try:
                self._stream.close()
            except (ValueError, OSError):
                pass

    def __repr__(self) -> str:
        return "JsonLogger(worker_id=%r)" % (self.worker_id,)


class _NullLogger(JsonLogger):
    """Accepts every call, writes nothing (the disabled default)."""

    def __init__(self) -> None:
        super().__init__(stream=io.StringIO())

    @property
    def enabled(self) -> bool:
        return False

    def log(self, event: str, level: str = "info",
            **attrs: object) -> Dict[str, object]:
        return {}


#: Shared no-op logger, analogous to ``trace.NULL_TRACER``.
NULL_LOG = _NullLogger()


def open_json_logger(target: Optional[str],
                     worker_id: Optional[int] = None,
                     buffered: bool = False) -> JsonLogger:
    """Resolve a ``PATH|-`` CLI value into a logger.

    ``None`` disables (returns :data:`NULL_LOG`), ``"-"`` writes to
    stderr (so server diagnostics and the access log share one fd that
    shells can redirect together), anything else appends to that file.
    ``buffered`` selects the deferred hot-path mode (the access log
    passes ``True``; diagnostics stay synchronous).
    """
    if target is None:
        return NULL_LOG
    if target == "-":
        return JsonLogger(stream=sys.stderr, worker_id=worker_id,
                          buffered=buffered)
    return JsonLogger(path=target, worker_id=worker_id,
                      buffered=buffered)
