"""Nested spans with a JSONL sink: the tracing half of ``repro.obs``.

A :class:`Tracer` hands out :class:`Span` context managers.  Spans nest
(the tracer keeps an open-span stack; a new span's parent is whatever
is on top), time themselves with both the monotonic wall clock and the
process CPU clock, carry free-form attributes and point-in-time events,
and record an error status when an exception escapes their ``with``
block -- the span still closes, so a crashing stage shows up in the
trace instead of vanishing from it.

Finished spans become plain dicts (:meth:`Span.record`): appended to
``Tracer.records`` and, when the tracer was opened with a path or
stream, written out as one JSON line each.  ``load_trace`` reads such a
file back.

**No-op mode.**  :data:`NULL_TRACER` is an always-off tracer whose
``span()`` returns a shared inert span.  Every instrumented call site
defaults to it, so tracing-off costs one method call and an empty
``with`` block per span site -- the ``obs`` section of the benchmark
report measures this at well under the 2% budget
(``repro.bench.run_obs_bench``).

**Worker capture.**  Worker processes cannot share the coordinator's
tracer.  Given a live coordinating span, ``parallel_map``/``stream_map``
(:mod:`repro.core.parallel`) run each worker under its own in-memory
``Tracer``, ship ``Captured(value, spans)`` back, and call
:meth:`Tracer.adopt` to re-parent the worker's root spans under that
span.  Span ids carry a per-tracer random prefix, so
records from any number of workers merge without collisions.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import uuid
from typing import Dict, IO, Iterable, List, Optional, Sequence

#: Span statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"


class Span:
    """One timed operation.  Use as a context manager, or call
    :meth:`finish` explicitly (out-of-order finish is allowed; the
    tracer unlinks the span from wherever it sits in the open stack).
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "attrs",
                 "events", "status", "error", "start", "wall", "cpu",
                 "_start_wall", "_start_cpu", "_open")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent_id: Optional[str],
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.events: List[Dict[str, object]] = []
        self.status = STATUS_OK
        self.error: Optional[str] = None
        self.start = time.time()
        self._start_wall = time.perf_counter()
        self._start_cpu = time.process_time()
        self.wall: Optional[float] = None
        self.cpu: Optional[float] = None
        self._open = True

    # -- annotation ----------------------------------------------------------

    def set(self, **attrs: object) -> "Span":
        """Merge ``attrs`` into the span's attributes."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        """Record a point-in-time event (offset from the span start)."""
        entry: Dict[str, object] = {
            "name": name,
            "at": time.perf_counter() - self._start_wall,
        }
        if attrs:
            entry["attrs"] = attrs
        self.events.append(entry)

    def fail(self, exc: BaseException) -> None:
        """Mark the span failed (kept open until :meth:`finish`)."""
        self.status = STATUS_ERROR
        self.error = "%s: %s" % (type(exc).__name__, exc)

    # -- lifecycle -----------------------------------------------------------

    def finish(self) -> None:
        """Close the span and hand the record to the tracer (idempotent)."""
        if not self._open:
            return
        self._open = False
        self.wall = time.perf_counter() - self._start_wall
        self.cpu = time.process_time() - self._start_cpu
        self.tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.fail(exc)
        self.finish()
        return False

    def record(self) -> Dict[str, object]:
        """The JSONL-ready view of a finished span."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "pid": os.getpid(),
            "start": self.start,
            "wall": self.wall if self.wall is not None else 0.0,
            "cpu": self.cpu if self.cpu is not None else 0.0,
            "status": self.status,
            "error": self.error,
            "attrs": self.attrs,
            "events": self.events,
        }

    def __repr__(self) -> str:
        return "Span(%s, id=%s, open=%s)" % (self.name, self.span_id,
                                             self._open)


class _NullSpan:
    """The shared inert span :data:`NULL_TRACER` hands out."""

    __slots__ = ()

    span_id = None
    events: List[Dict[str, object]] = []

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: object) -> None:
        pass

    def fail(self, exc: BaseException) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The shared inert span: the default for APIs that take an optional
#: coordinating span (its ``span_id`` is ``None``).
NULL_SPAN = _NullSpan()


class Tracer:
    """Factory and sink for spans.

    ``path``/``stream`` select a JSONL sink; without one the tracer is
    purely in-memory (``records``) -- the mode worker processes use.
    The tracer is single-threaded by design: the pipeline's concurrency
    is process-based, and worker records merge via :meth:`adopt`.
    """

    enabled = True

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[IO[str]] = None) -> None:
        self._prefix = uuid.uuid4().hex[:8]
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self.records: List[Dict[str, object]] = []
        self.path = path
        self._stream = stream
        self._owns_stream = False
        if path is not None and stream is None:
            self._stream = open(path, "w", encoding="utf-8")
            self._owns_stream = True

    # -- span creation -------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """Open a span nested under the current one (if any)."""
        span_id = "%s-%d" % (self._prefix, next(self._ids))
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self, name, span_id, parent, attrs)
        self._stack.append(span)
        return span

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def event(self, name: str, **attrs: object) -> None:
        """Record an event on the current span (no-op when none open)."""
        if self._stack:
            self._stack[-1].event(name, **attrs)

    # -- record flow ---------------------------------------------------------

    def _finish(self, span: Span) -> None:
        try:
            self._stack.remove(span)
        except ValueError:
            pass  # adopted/foreign span; nothing to unlink
        self._emit(span.record())

    def _emit(self, record: Dict[str, object]) -> None:
        self.records.append(record)
        if self._stream is not None:
            self._stream.write(json.dumps(record, sort_keys=True) + "\n")
            self._stream.flush()

    def adopt(self, records: Iterable[Dict[str, object]],
              parent_id: Optional[str] = None) -> None:
        """Merge worker-captured span records into this trace.

        Records whose parent is ``None`` (the worker's root spans) are
        re-parented under ``parent_id`` -- by default the coordinator's
        current span -- so the merged trace reads as one tree.  Ids are
        preserved (each tracer's random prefix keeps them unique).
        """
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        for record in records:
            if record.get("parent") is None and parent_id is not None:
                record = dict(record)
                record["parent"] = parent_id
            self._emit(record)

    def export(self) -> List[Dict[str, object]]:
        """A copy of every finished record (the worker shipping form)."""
        return list(self.records)

    def close(self) -> None:
        """Finish any still-open spans (innermost first) and close an
        owned sink."""
        for span in reversed(list(self._stack)):
            span.finish()
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class NullTracer:
    """The always-off tracer: every call is an inert constant."""

    enabled = False
    records: Sequence[Dict[str, object]] = ()
    path = None
    current = None

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: object) -> None:
        pass

    def adopt(self, records: Iterable[Dict[str, object]],
              parent_id: Optional[str] = None) -> None:
        pass

    def export(self) -> List[Dict[str, object]]:
        return []

    def close(self) -> None:
        pass


#: The shared no-op tracer every instrumented call site defaults to.
NULL_TRACER = NullTracer()


class Captured:
    """A worker's return value bundled with its captured span records."""

    __slots__ = ("value", "spans")

    def __init__(self, value: object,
                 spans: List[Dict[str, object]]) -> None:
        self.value = value
        self.spans = spans


# -- resilience bridging -----------------------------------------------------

def retry_to_span(span: Span, site: str):
    """An ``on_retry`` callback that records each retry as a span event.

    The dispatcher calls ``on_retry(item, attempts, exc)`` parent-side;
    ``exc`` is ``None`` when the retry was charged by a pool loss
    rather than a raised fault.
    """
    def on_retry(item: object, attempts: int,
                 exc: Optional[BaseException]) -> None:
        span.event("retry", site=site, attempts=attempts,
                   error=type(exc).__name__ if exc is not None
                   else "pool-loss")
    return on_retry


def resilience_to_span(span: Span, site: str, stats: object) -> None:
    """Summarise a fan-out's :class:`ResilienceStats` as span events.

    Retries were already recorded live by :func:`retry_to_span`; pool
    rebuilds, per-item timeouts, degradation, and poisoned items are
    only knowable from the stats object after the fan-out drains.
    """
    if getattr(stats, "pool_losses", 0):
        span.event("pool-rebuild", site=site, count=stats.pool_losses)
    if getattr(stats, "timeouts", 0):
        span.event("timeout", site=site, count=stats.timeouts)
    if getattr(stats, "poisoned", 0):
        span.event("poisoned", site=site, count=stats.poisoned)
    if getattr(stats, "degraded", False):
        span.event("degrade-to-serial", site=site)
    span.set(retries=getattr(stats, "retries", 0),
             pool_losses=getattr(stats, "pool_losses", 0))


def load_trace(path: str) -> List[Dict[str, object]]:
    """Read a trace JSONL file back into span records (blank-line
    tolerant; raises ``ValueError`` on a corrupt line)."""
    records: List[Dict[str, object]] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError("%s:%d: not a JSON span record (%s)"
                                 % (path, number, exc))
            if not isinstance(record, dict):
                raise ValueError("%s:%d: span record is not an object"
                                 % (path, number))
            records.append(record)
    return records
