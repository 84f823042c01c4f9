"""Batched bulk annotation: streaming input, process fan-out, sinks.

The engine turns an :class:`~repro.serve.service.AnnotationService`
into a pipeline for bulk workloads (the paper applies its conventions
to millions of PTR records):

* **streaming input** -- :func:`~repro.serve.service.iter_hostnames`
  parses hostname files (or stdin) lazily: first whitespace-separated
  field per line, blank lines and ``#`` comments skipped.  Nothing is
  materialised, so memory stays bounded by the chunk window regardless
  of input size.
* **chunked fan-out** -- hostnames are grouped into chunks (a
  deterministic adaptive ramp by default, fixed-size on request); under
  a parallel :class:`~repro.core.parallel.ParallelConfig` the chunks
  flow through :func:`~repro.core.parallel.stream_map`, whose worker
  processes each hold an
  :class:`~repro.serve.service.AnnotationService`: the parent's warmed
  service, inherited where the ``fork`` start method allows, else one
  built **once** per worker from the service's serialized conventions
  via the pool initializer.  Workers annotate each chunk with one call
  to the service's kernel, so the worker memo holds the same
  ``(asn, suffix)`` entries as any other (bulk PTR streams are as
  Zipf-skewed as live ones).  Results come back in input order, so
  parallel output is byte-identical to serial output.
* **cheap chunk IPC** -- chunks ship to workers as a single
  packed ``bytes`` payload (newline-joined hostnames) and come back as
  one ``array('q')`` of ASNs (``-1`` = miss), one buffer each way
  instead of a per-hostname object graph; the parent retains each
  chunk's hostname list (results arrive in dispatch order, so a deque
  realigns them) and zips pairs back together.  Chunks that cannot be
  packed safely (non-string items, embedded newlines, unencodable
  surrogates) fall back to the legacy list payload per chunk, and
  ASNs too large for a signed 64-bit slot fall back to a plain list
  result -- both byte-identical, just slower.
* **fault tolerance** -- with a
  :class:`~repro.core.resilience.RetryPolicy`, worker crashes rebuild
  the pool and replay in-flight chunks, transient faults retry with
  deterministic backoff, and a chunk that fails permanently is
  **dead-lettered**: recorded on :attr:`BulkAnnotator.dead_letters`,
  counted in the ``errors`` counter, and annotated as misses instead of
  killing the stream.  Retries bump the ``retries`` counter, so
  ``repro-hoiho serve-stats`` shows what a run survived.
* **checkpoint/resume** -- :meth:`BulkAnnotator.annotate_to` accepts a
  :class:`Checkpoint` sidecar recording the last durably-written chunk;
  an interrupted run resumed from the sidecar produces output
  byte-identical to an uninterrupted one.
* **sinks** -- TSV (``hostname<TAB>asn-or--``, the historical ``apply``
  format) and JSONL (one ``{"hostname":..., "asn":...}`` object per
  line) writers.

The serial path calls the same kernel in process: item by item when
untraced (so the stream stays lazy), one call per chunk otherwise.
Worker processes keep no shared metrics; the parent folds each chunk's
aggregate outcome into the service's registry (requests / annotated /
misses), so live counters work in both modes.  Per-suffix counts and
latency histograms are recorded only for in-process annotation.
"""

from __future__ import annotations

import itertools
import json
import os
from array import array
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.parallel import (
    ParallelConfig,
    adaptive_chunks,
    fork_inheritance_available,
    stream_map,
)
from repro.core.resilience import PoisonItemError, RetryPolicy
from repro.obs.metrics import merge_outcomes
from repro.obs.trace import NULL_TRACER
from repro.serve.memo import DEFAULT_MEMO_SIZE
from repro.serve.service import AnnotationService, iter_hostnames

#: Hostnames per dispatched chunk when a fixed ``chunk_size`` is
#: requested (``chunk_size=None`` -- the default -- uses the adaptive
#: ramp from :func:`repro.core.parallel.adaptive_chunks` instead).
#: Large enough to amortise pickling, small enough that a handful of
#: in-flight chunks stay cheap.  The serial path also coarsens traced
#: laziness to this size.
DEFAULT_CHUNK_SIZE = 2048

#: Fault-injection site label for the bulk annotation fan-out.
SITE_BULK_ANNOTATE = "bulk-annotate"


def _chunked(items: Iterable[str], size: int) -> Iterator[List[str]]:
    """Fixed-size chunks of ``items`` (last one may be short)."""
    chunk: List[str] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


# -- worker side -------------------------------------------------------------

#: The worker's own :class:`AnnotationService`, set by the pool
#: initializer.  Its memo and metrics are private to the worker; the
#: parent folds each chunk's outcome into its own registry.
_WORKER_SERVICE: Optional[AnnotationService] = None

#: Fork-inheritance handoff.  Right before creating a pool, the parent
#: parks its warmed service here together with a dispatch-unique
#: token; under the ``fork`` start method every worker inherits the
#: globals and the initializer adopts the service (zero per-worker
#: parse or compile).  Under ``spawn``/``forkserver`` the child
#: re-imports this module, sees ``None``, and falls back to the shipped
#: JSON.  Two interleaved bulk runs in one process overwrite the
#: parking spot; the token mismatch then routes later-forked workers
#: to the JSON fallback -- slower, never wrong.
_FORK_TOKEN: Optional[Tuple[int, int]] = None
_FORK_SERVICE: Optional[AnnotationService] = None
_fork_tokens = itertools.count(1)


def _init_annotation_worker(conventions_json: str,
                            fork_token: Optional[Tuple[int, int]] = None,
                            memo_size: int = DEFAULT_MEMO_SIZE) -> None:
    """Pool initializer: adopt the fork-inherited service when the token
    matches, else build + warm one from ``conventions_json`` (which
    ships once per worker, not per chunk).

    The parent itself never adopts its own service: a pool that
    degrades to inline execution runs this initializer in the parent,
    where the parked service's registry would count every chunk twice.
    """
    global _WORKER_SERVICE
    if fork_token is not None and fork_token == _FORK_TOKEN \
            and fork_token[0] != os.getpid() and _FORK_SERVICE is not None:
        _WORKER_SERVICE = _FORK_SERVICE
        return
    service = AnnotationService.from_json(conventions_json,
                                          memo_size=memo_size)
    service.warm()
    _WORKER_SERVICE = service


def _pack_chunk(chunk: List[str]) -> Union[bytes, List[str]]:
    """One UTF-8 buffer for the whole chunk, or the chunk itself when
    packing would be lossy (non-``str`` items, embedded newlines,
    surrogates UTF-8 cannot encode)."""
    for hostname in chunk:
        if type(hostname) is not str or "\n" in hostname:
            return chunk
    try:
        return "\n".join(chunk).encode("utf-8")
    except UnicodeEncodeError:
        return chunk


def _unpack_item(item: Union[bytes, List[str]]) -> List[str]:
    """The hostname list behind a dispatched payload (chunks are never
    empty, so ``b"".split`` ambiguity cannot arise)."""
    if isinstance(item, bytes):
        return item.decode("utf-8").split("\n")
    return list(item)


def _annotate_chunk(payload: Union[bytes, List[str]],
                    tracer=NULL_TRACER) -> Union["array", List]:
    """Annotate one dispatched payload with the worker's service, in
    one kernel call under a ``serve.chunk`` span.

    A packed ``bytes`` payload returns an ``array('q')`` of ASNs with
    ``-1`` for misses/malformed (extracted ASNs are non-negative, so
    the sentinel cannot collide) -- one pickling buffer instead of a
    list of tuples.  An ASN beyond the signed-64-bit range falls back
    to a plain ``Optional[int]`` list.  A legacy list payload returns
    the historical ``(hostname, asn)`` pairs.
    """
    service = _WORKER_SERVICE
    assert service is not None, "worker initializer did not run"
    packed = isinstance(payload, bytes)
    with tracer.span("serve.chunk") as span:
        asns = service.annotate_batch(
            payload.decode("utf-8").split("\n") if packed else payload)
        span.set(size=len(asns), annotated=len(asns) - asns.count(None))
    if not packed:
        return list(zip(payload, asns))
    try:
        return array("q", (-1 if asn is None else asn for asn in asns))
    except OverflowError:
        return asns


# -- sinks -------------------------------------------------------------------

def tsv_line(hostname: str, asn: Optional[int]) -> str:
    """``hostname<TAB>asn`` with ``-`` for unannotated (apply format)."""
    return "%s\t%s" % (hostname, asn if asn is not None else "-")


def jsonl_line(hostname: str, asn: Optional[int]) -> str:
    """One JSON object per hostname (``asn`` null when unannotated)."""
    return json.dumps({"asn": asn, "hostname": hostname}, sort_keys=True)


#: Output formats understood by :meth:`BulkAnnotator.annotate_to`.
SINKS: Dict[str, Callable[[str, Optional[int]], str]] = {
    "tsv": tsv_line,
    "jsonl": jsonl_line,
}


# -- checkpoint/resume -------------------------------------------------------

@dataclass
class DeadLetter:
    """One chunk that failed permanently and was annotated as misses."""

    index: int                 # chunk index in dispatch order
    hostnames: List[str]
    error: str                 # final underlying failure, stringified
    attempts: int


class Checkpoint:
    """A progress sidecar making :meth:`BulkAnnotator.annotate_to`
    resumable.

    The sidecar records, after each durably-flushed chunk, how many
    requests (== output lines; both sinks emit exactly one line per
    hostname) have been written.  On resume the engine truncates the
    output file back to that many lines -- discarding any partial tail
    a crash left behind -- skips that many input hostnames, and
    continues, so the final bytes are identical to an uninterrupted
    run.  Sidecar writes are atomic (tmp + ``os.replace``), so the
    recorded progress never overstates what the output file holds.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def load(self) -> Optional[Dict[str, object]]:
        """The recorded progress, or ``None`` when starting fresh.

        An unreadable sidecar is an error, not a silent restart -- a
        fresh run would overwrite output the operator asked to resume.
        """
        if not self.path.exists():
            return None
        with open(self.path, encoding="utf-8") as handle:
            state = json.load(handle)
        for key in ("requests", "annotated", "errors", "fmt"):
            if key not in state:
                raise ValueError("checkpoint %s is missing %r"
                                 % (self.path, key))
        return state

    def record(self, requests: int, annotated: int, errors: int,
               fmt: str, chunk_size: int, complete: bool = False) -> None:
        """Atomically persist progress through the last flushed chunk."""
        tmp = self.path.with_name(self.path.name + ".tmp.%d" % os.getpid())
        state = {"requests": requests, "annotated": annotated,
                 "errors": errors, "fmt": fmt, "chunk_size": chunk_size,
                 "complete": complete}
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)


def _resume_output(out: IO[str], lines_done: int) -> None:
    """Truncate ``out`` to its first ``lines_done`` lines and position
    the handle at the new end (discards any partial tail)."""
    if not out.seekable():
        raise ValueError("checkpoint resume needs a seekable output "
                         "(a file, not a pipe)")
    out.seek(0)
    for _ in range(lines_done):
        if not out.readline():
            raise ValueError(
                "output holds fewer lines than the checkpoint records "
                "(%d expected); wrong --out file?" % lines_done)
    # Text-mode readline() read-ahead leaves the underlying buffer past
    # the logical position; re-seeking to the told cookie resets it so
    # the no-arg truncate cuts at the right byte.
    out.seek(out.tell())
    out.truncate()


class BulkAnnotator:
    """Order-preserving bulk annotation over a service.

    ``parallel`` fans chunks out over worker processes; output is
    byte-identical to the serial path because chunks are dispatched and
    yielded in input order and every worker runs the same dispatch
    logic over the same serialized conventions.  ``retry`` arms the
    resilient dispatcher: worker loss replays in-flight chunks, and
    permanently failing chunks dead-letter as misses instead of
    aborting the stream -- still byte-identical for every chunk that
    survives.
    """

    def __init__(self, service: AnnotationService,
                 parallel: Optional[ParallelConfig] = None,
                 chunk_size: Optional[int] = None,
                 window: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 tracer=NULL_TRACER) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1, got %d" % chunk_size)
        self.service = service
        self.parallel = parallel or ParallelConfig.serial()
        self.chunk_size = chunk_size
        self.window = window
        self.retry = retry
        self.tracer = tracer
        self.dead_letters: List[DeadLetter] = []
        # Created up front so stats snapshots show zeros before (and
        # without) any faults.
        self._errors = service.metrics.counter("errors")
        self._retries = service.metrics.counter("retries")

    # -- fault hooks ---------------------------------------------------------

    def _on_poison(self, item: Union[bytes, List[str]],
                   error: PoisonItemError) -> List[Tuple[str, Optional[int]]]:
        """Dead-letter a permanently failed chunk as misses.  The
        dispatched item may be a packed payload; the dead letter always
        records the real hostnames."""
        hostnames = _unpack_item(item)
        self.dead_letters.append(DeadLetter(
            index=error.index, hostnames=hostnames,
            error="%s: %s" % (type(error.cause).__name__, error.cause),
            attempts=error.attempts))
        self._errors.inc(len(hostnames))
        return [(hostname, None) for hostname in hostnames]

    def _on_retry(self, chunk: List[str], attempts: int,
                  exc: Optional[BaseException]) -> None:
        self._retries.inc()

    # -- annotation ----------------------------------------------------------

    def _annotate_chunks(self, hostnames: Iterable[str],
                         ) -> Iterator[List[Tuple[str, Optional[int]]]]:
        """Lazily yield per-chunk ``(hostname, annotation)`` lists in
        input order, folding aggregate metrics into the service.

        A ``serve.bulk`` span brackets the whole streaming run, opened
        and finished manually because the run is a generator: the span
        covers first pull to exhaustion, which includes consumer-side
        time between pulls -- the price of complete bracketing.
        Per-chunk ``serve.chunk`` spans record where annotation time
        went; retries and poisoned chunks are events on ``serve.bulk``.
        """
        span = self.tracer.span(
            "serve.bulk",
            chunk_size=self.chunk_size if self.chunk_size is not None
            else "adaptive",
            parallel=self.parallel.is_parallel)
        chunks_done = 0
        try:
            for pairs in self._dispatch_chunks(hostnames, span):
                chunks_done += 1
                yield pairs
        except BaseException as exc:
            span.fail(exc)
            raise
        finally:
            span.set(chunks=chunks_done)
            memo = self.service.memo
            if memo is not None:
                span.set(memo_hits=memo.hits, memo_misses=memo.misses,
                         memo_evictions=memo.evictions)
            span.finish()

    def _chunk_stream(self, hostnames: Iterable[str],
                      ) -> Iterator[List[str]]:
        """Chunks under the configured policy: fixed size when one was
        requested, the deterministic adaptive ramp otherwise."""
        if self.chunk_size is not None:
            return _chunked(hostnames, self.chunk_size)
        return adaptive_chunks(hostnames)

    def _dispatch_chunks(self, hostnames: Iterable[str], span,
                         ) -> Iterator[List[Tuple[str, Optional[int]]]]:
        if not self.parallel.is_parallel:
            # Serial: straight through the service (full per-request
            # metrics, no serialization round-trip).  Worker faults
            # cannot happen in-process, so the retry policy is moot.
            yield from self._serial_chunks(hostnames)
            return
        global _FORK_TOKEN, _FORK_SERVICE
        # Retain each chunk's hostname list parent-side; results come
        # back strictly in dispatch order (stream_map's contract, faults
        # included), so a deque realigns them.
        retained: deque = deque()

        def payloads() -> Iterator[Union[bytes, List[str]]]:
            for chunk in self._chunk_stream(hostnames):
                retained.append(chunk)
                yield _pack_chunk(chunk)

        token = None
        if fork_inheritance_available():
            # Park the live service for fork inheritance: workers adopt
            # its already-built, already-fused trie and its memo instead
            # of re-parsing conventions JSON.  A shadow service parks
            # its primary: shadow comparison stays in this process.
            service = getattr(self.service, "primary", self.service)
            service.warm()
            token = (os.getpid(), next(_fork_tokens))
            _FORK_SERVICE = service
            _FORK_TOKEN = token
        span.set(fork_shared=token is not None)
        try:
            results = stream_map(
                _annotate_chunk, payloads(), self.parallel,
                window=self.window,
                initializer=_init_annotation_worker,
                initargs=(self.service.to_json(), token,
                          self.service.memo_size),
                retry=self.retry, site=SITE_BULK_ANNOTATE,
                on_poison=self._on_poison if self.retry is not None
                else None,
                on_retry=self._on_retry if self.retry is not None
                else None, span=span)
            for result in results:
                chunk = retained.popleft()
                if isinstance(result, array):
                    # Packed result: ASNs only, -1 = miss.
                    pairs = [(hostname, None if asn < 0 else asn)
                             for hostname, asn in zip(chunk, result)]
                elif result and not isinstance(result[0], tuple):
                    # Overflow fallback: plain Optional[int] list.
                    pairs = list(zip(chunk, result))
                else:
                    # Pairs: legacy list payload, or an ``on_poison``
                    # dead-letter substitute.
                    pairs = result
                annotated = sum(1 for _, asn in pairs if asn is not None)
                merge_outcomes(self.service.metrics, len(pairs), annotated)
                yield pairs
        finally:
            if token is not None and _FORK_TOKEN == token:
                _FORK_TOKEN = None
                _FORK_SERVICE = None

    def _serial_chunks(self, hostnames: Iterable[str],
                       ) -> Iterator[List[Tuple[str, Optional[int]]]]:
        """The in-process path: one kernel call per chunk, each under
        its own ``serve.chunk`` span.

        Each span covers pulling the chunk from the input and
        annotating it; the final span (the one that discovers
        end-of-input) is marked ``eos`` and measures only that
        discovery.
        """
        chunks = _chunked(hostnames, self.chunk_size
                          if self.chunk_size is not None
                          else DEFAULT_CHUNK_SIZE)
        index = 0
        while True:
            chunk_span = self.tracer.span("serve.chunk", chunk=index)
            try:
                chunk = next(chunks, None)
                asns = self.service.annotate_batch(chunk) \
                    if chunk is not None else None
            except BaseException as exc:
                chunk_span.fail(exc)
                chunk_span.finish()
                raise
            if chunk is None:
                chunk_span.set(eos=True)
                chunk_span.finish()
                return
            chunk_span.set(size=len(asns),
                           annotated=len(asns) - asns.count(None))
            chunk_span.finish()
            yield list(zip(chunk, asns))
            index += 1

    def annotate(self, hostnames: Iterable[str],
                 ) -> Iterator[Tuple[str, Optional[int]]]:
        """Lazily yield ``(hostname, annotation)`` in input order.

        In serial mode this is item-by-item lazy; in parallel mode the
        chunk window bounds how far ahead of the consumer input is
        pulled.  A traced serial run goes through the chunked path too
        (laziness coarsens to ``chunk_size``) so ``serve.bulk`` /
        ``serve.chunk`` spans exist regardless of the backend.
        """
        if not self.parallel.is_parallel and not self.tracer.enabled:
            yield from self.service.annotate_pairs(hostnames)
            return
        for pairs in self._annotate_chunks(hostnames):
            yield from pairs

    def annotate_lines(self, lines: Iterable[str],
                       ) -> Iterator[Tuple[str, Optional[int]]]:
        """Like :meth:`annotate`, parsing hostname-file lines first."""
        return self.annotate(iter_hostnames(lines))

    def annotate_to(self, hostnames: Iterable[str], out: IO[str],
                    fmt: str = "tsv",
                    checkpoint: Optional[Checkpoint] = None,
                    ) -> Dict[str, int]:
        """Stream annotations for ``hostnames`` into ``out``.

        With ``checkpoint``, progress is recorded after every flushed
        chunk and a prior interrupted run is resumed: already-written
        chunks are skipped (the input must be re-supplied from the
        start), any partial tail in ``out`` is truncated, and the final
        output is byte-identical to an uninterrupted run.

        Returns a summary: ``{"requests": n, "annotated": n,
        "misses": n, "errors": n}`` covering the whole logical run
        (resumed work included).
        """
        try:
            sink = SINKS[fmt]
        except KeyError:
            raise ValueError("unknown sink format %r (expected one of %s)"
                             % (fmt, ", ".join(sorted(SINKS))))
        requests = annotated = base_errors = 0
        if checkpoint is not None:
            state = checkpoint.load()
            if state is not None:
                if state["fmt"] != fmt:
                    raise ValueError(
                        "checkpoint %s was written as %r, cannot resume "
                        "as %r" % (checkpoint.path, state["fmt"], fmt))
                requests = int(state["requests"])  # == lines written
                annotated = int(state["annotated"])
                base_errors = int(state["errors"])
                _resume_output(out, requests)
                hostnames = _drop(hostnames, requests)
        dead_before = sum(len(d.hostnames) for d in self.dead_letters)
        errors = base_errors
        for pairs in self._annotate_chunks(hostnames):
            for hostname, asn in pairs:
                out.write(sink(hostname, asn) + "\n")
                requests += 1
                if asn is not None:
                    annotated += 1
            errors = base_errors + sum(
                len(d.hostnames) for d in self.dead_letters) - dead_before
            if checkpoint is not None:
                _flush(out)
                checkpoint.record(requests=requests, annotated=annotated,
                                  errors=errors, fmt=fmt,
                                  chunk_size=self.chunk_size or 0)
        if checkpoint is not None:
            _flush(out)
            checkpoint.record(requests=requests, annotated=annotated,
                              errors=errors, fmt=fmt,
                              chunk_size=self.chunk_size or 0,
                              complete=True)
        return {"requests": requests, "annotated": annotated,
                "misses": requests - annotated, "errors": errors}


def _drop(items: Iterable[str], count: int) -> Iterator[str]:
    """Skip the first ``count`` items of a (lazily consumed) iterable."""
    return itertools.islice(items, count, None)


def _flush(out: IO[str]) -> None:
    """Flush ``out`` as durably as the handle allows."""
    out.flush()
    fileno = getattr(out, "fileno", None)
    if fileno is not None:
        try:
            os.fsync(fileno())
        except (OSError, ValueError):
            pass  # StringIO and friends: flush() is the best we get
