"""Parallel execution policy for the learner and the eval harness.

Learning is embarrassingly parallel at two granularities: suffix
datasets are independent (``Hoiho.run``), and the timeline's
training sets are independent (``ExperimentContext``).  A
:class:`ParallelConfig` describes how to fan either out; the default is
serial, and parallel runs are constructed to be *bit-identical* to
serial ones: work items are sorted before dispatch, results are yielded
in input order, and each worker runs the same deterministic learner.

Dispatch takes one of three routes, picked only by what the work
needs: **in process** (the serial backend, or a map of at most one
item without a retry policy); a **chunked pool map** (a
:func:`parallel_map` over processes without a policy: ``Executor.map``
in ``chunk_size`` chunks); or an **ordered window** over a pool (a
:func:`stream_map` over processes, or a retry-armed map over
processes).  Without a :class:`~repro.core.resilience.RetryPolicy`
every route fails fast: a worker's exception re-raises as itself.
With one, transient worker exceptions are retried with deterministic
backoff, a ``BrokenProcessPool`` rebuilds the pool and re-dispatches
the in-flight items (degrading to serial execution after
``policy.pool_rebuilds`` losses), per-item timeouts tear down and
rebuild a wedged pool, and items that fail permanently surface as
:class:`~repro.core.resilience.PoisonItemError` -- or flow to the
caller's ``on_poison`` substitute so a stream can outlive its poison
(the serving engine's dead-letter path).  Ordering, and therefore
byte-identity with serial output, is preserved throughout: retries
happen out of order, but results are emitted strictly in input order.

Both primitives also take the coordinating ``span`` of the fan-out;
tracing never changes the route.  With the default
:data:`~repro.obs.trace.NULL_SPAN` nothing is traced.  With a live
span ``func`` must accept ``tracer=``: in process it writes straight
into ``span``'s tracer, its root spans parented under ``span``; across
processes each item runs under a worker-local
:class:`~repro.obs.trace.Tracer` whose captured spans ride home with
the value and are adopted under ``span``.  Retries are recorded on
``span`` as they happen, and a retry-armed fan-out ends with its
:class:`~repro.core.resilience.ResilienceStats` summarised there too.
So each call site keeps one worker, traced or not.
"""

from __future__ import annotations

import os
import time
from functools import partial
from itertools import chain, starmap
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple, TypeVar

from repro.core.resilience import (
    PoisonItemError,
    ResilienceStats,
    ResilientCall,
    RetryPolicy,
    call_with_retry,
)
from repro.obs.trace import (
    NULL_SPAN,
    Captured,
    Tracer,
    resilience_to_span,
    retry_to_span,
)

#: Run everything in the calling process.
BACKEND_SERIAL = "serial"
#: Fan out over a :class:`concurrent.futures.ProcessPoolExecutor`.
BACKEND_PROCESS = "process"

_BACKENDS = (BACKEND_SERIAL, BACKEND_PROCESS)

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_workers() -> int:
    """A sensible worker count for this machine."""
    return max(1, os.cpu_count() or 1)


def fork_inheritance_available() -> bool:
    """Whether worker processes inherit this process's memory.

    Under the ``fork`` start method, module-level state built *before*
    the pool starts is visible in every worker for free -- the serving
    engine uses this to hand workers a prebuilt dispatch index instead
    of re-parsing conventions JSON per worker.  ``spawn``/``forkserver``
    children re-import modules from scratch, so callers must keep a
    pickle-able fallback either way.
    """
    import multiprocessing
    try:
        return multiprocessing.get_start_method() == "fork"
    except (ValueError, RuntimeError):
        return False


#: First chunk size of an adaptive ramp: small enough that every worker
#: gets work within milliseconds of the stream starting.
ADAPTIVE_CHUNK_MIN = 512

#: Ramp ceiling: large enough to amortise per-chunk dispatch overhead
#: (pickling, queue hops) down to noise on long streams.
ADAPTIVE_CHUNK_MAX = 16384


def adaptive_chunks(items: Iterable[_T],
                    start: int = ADAPTIVE_CHUNK_MIN,
                    limit: int = ADAPTIVE_CHUNK_MAX,
                    ) -> Iterator[List[_T]]:
    """Chunk ``items`` on a deterministic doubling ramp.

    Fixed-size chunking forces a trade-off the stream shouldn't have to
    make: small chunks keep pipeline fill latency low but drown long
    runs in dispatch overhead; large chunks amortise dispatch but leave
    workers idle while the first chunks fill.  The ramp takes both:
    chunk sizes double from ``start`` to ``limit`` and stay there, so a
    short input finishes promptly and a long one pays near-``limit``
    amortisation for all but its opening chunks.  The schedule depends
    only on ``start``/``limit``, never on timing, so chunk boundaries
    -- and therefore parallel output -- stay deterministic.
    """
    if start < 1 or limit < start:
        raise ValueError("need 1 <= start <= limit, got %d/%d"
                         % (start, limit))
    size = start
    chunk: List[_T] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
            if size < limit:
                size = min(size * 2, limit)
    if chunk:
        yield chunk


@dataclass(frozen=True)
class ParallelConfig:
    """How to fan out independent learning work.

    Attributes:
        workers: worker process count (1 means serial regardless of
            backend).
        chunk_size: work items handed to a worker per dispatch; larger
            chunks amortise pickling for many small suffixes.
        backend: ``serial`` or ``process``.
    """

    workers: int = 1
    chunk_size: int = 4
    backend: str = BACKEND_SERIAL

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValueError("unknown backend %r (expected one of %s)"
                             % (self.backend, ", ".join(_BACKENDS)))
        if self.workers < 1:
            raise ValueError("workers must be >= 1, got %d" % self.workers)
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1, got %d"
                             % self.chunk_size)

    @property
    def is_parallel(self) -> bool:
        """True when work should actually leave this process."""
        return self.backend == BACKEND_PROCESS and self.workers > 1

    @classmethod
    def serial(cls) -> "ParallelConfig":
        """The do-everything-inline policy."""
        return cls()

    @classmethod
    def from_jobs(cls, jobs: int) -> "ParallelConfig":
        """Map a ``--jobs N`` CLI value to a config.

        ``0`` means "one worker per CPU"; ``1`` (the default) is serial;
        anything larger is that many worker processes.  Negative values
        are a usage error, not an implicit serial run.
        """
        if jobs < 0:
            raise ValueError("--jobs must be >= 0, got %d" % jobs)
        if jobs == 0:
            jobs = default_workers()
        if jobs <= 1:
            return cls.serial()
        return cls(workers=jobs, backend=BACKEND_PROCESS)


def parallel_map(func: Callable[[_T], _R], items: Sequence[_T],
                 config: ParallelConfig,
                 retry: Optional[RetryPolicy] = None,
                 site: str = "map",
                 on_retry: Optional[Callable] = None,
                 stats: Optional[ResilienceStats] = None,
                 span=NULL_SPAN) -> List[_R]:
    """Ordered map over ``items`` under ``config``.

    Results arrive in input order whichever backend runs, so callers get
    deterministic output as long as ``items`` is deterministically
    ordered.  ``func`` and the items must be picklable for the process
    backend.

    ``retry`` opts in to the resilient dispatcher (see the module
    docstring); an item that fails permanently raises
    :class:`~repro.core.resilience.PoisonItemError` -- fan-out callers
    like the snapshot pipeline must not silently drop work, so there is
    no substitution here (use :func:`stream_map` with ``on_poison`` for
    that).  ``span`` traces the fan-out (see the module docstring).
    """
    if retry is None and len(items) > 1 and config.is_parallel:
        # The chunked pool map: fail fast, chunk_size items per hand-off.
        traced = span.span_id is not None
        with ProcessPoolExecutor(
                max_workers=min(config.workers, len(items))) as pool:
            results = pool.map(_Traced(func) if traced else func, items,
                               chunksize=config.chunk_size)
            if not traced:
                return list(results)
            return [_adopt(span, captured) for captured in results]
    if retry is None:
        # Serial, or one item: no pool.  A retry-armed item keeps its
        # pool, since timeouts and pool-loss recovery need a worker.
        config = ParallelConfig.serial()
    return list(stream_map(func, items, config, window=max(len(items), 1),
                           retry=retry, site=site, on_retry=on_retry,
                           stats=stats, span=span))


def stream_map(func: Callable[[_T], _R], items: Iterable[_T],
               config: ParallelConfig,
               window: Optional[int] = None,
               initializer: Optional[Callable[..., None]] = None,
               initargs: Tuple = (),
               retry: Optional[RetryPolicy] = None,
               site: str = "stream",
               on_poison: Optional[Callable] = None,
               on_retry: Optional[Callable] = None,
               stats: Optional[ResilienceStats] = None,
               span=NULL_SPAN) -> Iterator[_R]:
    """Lazy, ordered map over an *unbounded* iterable.

    Unlike :func:`parallel_map`, which materialises its input and
    output, this consumes ``items`` lazily and yields results in input
    order with at most ``window`` work items in flight (default: 4 per
    worker) -- the memory bound that lets the serving engine stream
    millions of hostnames through a fixed-size pipeline.

    ``initializer``/``initargs`` run once per worker process before any
    work item (the :class:`~concurrent.futures.ProcessPoolExecutor`
    contract); the serial path invokes them once in the calling process
    so both paths see the same set-up.

    A consumer that abandons the generator (closes it, or lets an
    exception escape its loop) shuts the pool down promptly: queued
    items are cancelled and workers exit after at most one in-flight
    item, instead of draining the whole window.

    ``retry`` enables the resilient dispatcher.  ``on_poison(item,
    error)`` -- if given -- supplies a substitute result for an item
    that failed permanently (the dead-letter hook); without it, poison
    raises :class:`~repro.core.resilience.PoisonItemError`.
    ``on_retry(item, attempts, exc)`` observes each retry, and
    ``stats`` (a :class:`~repro.core.resilience.ResilienceStats`)
    accumulates what the run survived.  ``span`` traces the fan-out
    (see the module docstring).
    """
    window = window if window and window > 0 else config.workers * 4
    stats = stats if stats is not None else ResilienceStats()
    traced = span.span_id is not None
    if traced:
        on_retry = retry_to_span(span, site, then=on_retry)
    if config.is_parallel:
        for result in _windowed(_Traced(func) if traced else func, items,
                                config, window, initializer, initargs,
                                retry, site, on_poison, on_retry, stats):
            yield _adopt(span, result) if traced else result
    else:
        # In process: one loop, with or without a policy or a span.
        if initializer is not None:
            initializer(*initargs)
        call = func if not traced else partial(
            span.tracer.call_under, span, func, tracer=span.tracer)
        resilient = None if retry is None else ResilientCall(call, site)
        for index, item in enumerate(items):
            yield call(item) if resilient is None else _run_inline(
                resilient, index, item, 0, retry, on_poison, on_retry,
                stats)
    if traced and retry is not None:
        resilience_to_span(span, site, stats)


class _Traced:
    """Worker wrapper for the process routes: run ``func`` under a
    worker-local tracer and ship the captured span records home with
    the value.  Module-level and attribute-only, so it pickles."""

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, item: object) -> Captured:
        tracer = Tracer()
        value = self.func(item, tracer=tracer)
        tracer.close()
        return Captured(value, tracer.export())


def _adopt(span, result: object) -> object:
    """Unwrap a :class:`Captured` result, adopting its spans under
    ``span``; a plain ``on_poison`` substitute passes through."""
    if isinstance(result, Captured):
        span.tracer.adopt(result.spans, parent_id=span.span_id)
        return result.value
    return result


def _run_inline(call: ResilientCall, index: int, item: object,
                attempts: int, retry: RetryPolicy,
                on_poison: Optional[Callable], on_retry: Optional[Callable],
                stats: ResilienceStats) -> object:
    """One retry-armed item in this process: its value, or the
    ``on_poison`` substitute when it fails permanently."""
    try:
        return call_with_retry(call, index, item, retry, on_retry=on_retry,
                               stats=stats, attempts=attempts)
    except PoisonItemError as error:
        stats.poisoned += 1
        if on_poison is None:
            raise
        return on_poison(item, error)


# -- the ordered window ------------------------------------------------------

class _Flight:
    """One in-flight work item: identity, payload, and failure count."""

    __slots__ = ("index", "item", "attempts", "future")

    def __init__(self, index: int, item: object) -> None:
        self.index = index
        self.item = item
        self.attempts = 0
        self.future = None


def _windowed(func: Callable, items: Iterable, config: ParallelConfig,
              window: int, initializer: Optional[Callable],
              initargs: Tuple, retry: Optional[RetryPolicy], site: str,
              on_poison: Optional[Callable],
              on_retry: Optional[Callable],
              stats: ResilienceStats) -> Iterator:
    """The ordered streaming dispatcher over a process pool.

    Results are buffered per index and emitted strictly in input order,
    so retries (which complete out of order) never perturb the output
    stream -- parallel-with-faults output stays byte-identical to a
    clean serial run.  With ``retry=None`` the first failure is final:
    a worker's exception re-raises as itself and a pool loss as
    ``BrokenProcessPool``.
    """
    call = func if retry is None else ResilientCall(func, site)
    timeout = None if retry is None else retry.timeout
    source = enumerate(items)

    def settle(flight: _Flight,
               exc: Optional[BaseException] = None) -> object:
        """Resolve a permanently failed item (by default one lost with
        its worker): substitute or raise."""
        if exc is None:
            exc = BrokenProcessPool("worker lost while item was in flight")
        stats.poisoned += 1
        error = PoisonItemError(flight.index, max(flight.attempts, 1), exc)
        if on_poison is None:
            raise error from exc
        return on_poison(flight.item, error)

    pending: Dict[int, _Flight] = {}
    ready: Dict[int, object] = {}
    emit = 0
    exhausted = False
    rebuilds_left = 0 if retry is None else retry.pool_rebuilds
    pool: Optional[ProcessPoolExecutor] = None

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=config.workers,
                                   initializer=initializer,
                                   initargs=initargs)

    def submit(flight: _Flight) -> None:
        packed = flight.item if retry is None \
            else (flight.index, flight.attempts, flight.item)
        flight.future = pool.submit(call, packed)

    def rebuild_pool(timed_out: Optional[_Flight]) -> None:
        """Replace a dead/wedged pool and re-dispatch survivors.

        The culprit is unknowable after a pool loss (the dying worker
        takes the evidence with it), so every in-flight item is charged
        one attempt; items that exhaust their budget are poisoned here
        and never re-run -- in particular never *inline*, where a
        crashing item would take the parent down with it.  A timeout
        names its culprit, so only the wedged item is charged.
        """
        nonlocal pool
        pool.shutdown(wait=False, cancel_futures=True)
        pool = make_pool()
        harvest_done()
        if timed_out is not None:
            charged = [timed_out] if timed_out.index in pending else []
        else:
            charged = list(pending.values())
        for flight in charged:
            flight.attempts += 1
        for index in sorted(pending):
            flight = pending[index]
            if flight.attempts >= retry.max_attempts:
                del pending[index]
                ready[index] = settle(flight)
            else:
                if flight in charged:
                    stats.retries += 1
                    if on_retry is not None:
                        on_retry(flight.item, flight.attempts, None)
                submit(flight)

    def harvest_done() -> None:
        """Bank results that finished before their pool died, so a
        rebuild neither recomputes nor charges them."""
        for index in sorted(pending):
            future = pending[index].future
            if future is not None and future.done() \
                    and future.exception() is None:
                del pending[index]
                ready[index] = future.result()

    pool = make_pool()
    try:
        while True:
            # Top up the in-flight window from the source.  A submit on
            # a freshly broken pool fails fast without a policy; with
            # one it parks the flight with no future, and the collection
            # path below notices and runs the loss protocol.
            while not exhausted and len(pending) < window:
                try:
                    index, item = next(source)
                except StopIteration:
                    exhausted = True
                    break
                flight = _Flight(index, item)
                try:
                    submit(flight)
                except BrokenProcessPool:
                    if retry is None:
                        raise
                pending[flight.index] = flight

            # Emit everything that is ready, in input order.
            while emit in ready:
                value = ready.pop(emit)
                emit += 1
                yield value

            if not pending:
                if exhausted:
                    return
                continue

            # Collect the head-of-line item (oldest unemitted index).
            head = pending[min(pending)]
            outcome = None          # "ok" | "fault" | "lost"
            value = exc = None
            if head.future is None:
                outcome = "lost"
            else:
                try:
                    value = head.future.result(timeout=timeout)
                    outcome = "ok"
                except BrokenProcessPool as err:
                    exc = err
                    outcome = "lost"
                except FuturesTimeoutError:
                    if head.future.done():
                        # The *wait* did not time out -- the worker
                        # finished (or raised) in the window between the
                        # timeout and here, or func raised TimeoutError
                        # itself.
                        exc = head.future.exception()
                        if exc is None:
                            value = head.future.result()
                            outcome = "ok"
                        else:
                            outcome = "fault"
                    else:
                        # The item overran its budget; a busy worker
                        # cannot be reclaimed, so tear the pool down and
                        # re-run everything that was in flight (only the
                        # wedged item is charged an attempt).
                        stats.timeouts += 1
                        rebuild_pool(timed_out=head)
                        continue
                except Exception as err:
                    exc = err
                    outcome = "fault"

            if outcome == "ok":
                del pending[head.index]
                ready[head.index] = value
                continue

            if retry is None:
                raise exc

            if outcome == "fault":
                head.attempts += 1
                if retry.is_transient(exc) \
                        and head.attempts < retry.max_attempts:
                    stats.retries += 1
                    if on_retry is not None:
                        on_retry(head.item, head.attempts, exc)
                    time.sleep(retry.backoff(head.attempts))
                    submit(head)
                else:
                    del pending[head.index]
                    ready[head.index] = settle(head, exc)
                continue

            # Pool lost.
            stats.pool_losses += 1
            if rebuilds_left > 0:
                rebuilds_left -= 1
                rebuild_pool(timed_out=None)
                continue

            # Too many pool losses: degrade to serial.  Items already
            # past their attempt budget are poisoned (they may be what
            # keeps killing workers); the rest -- and all remaining
            # input -- run inline in this process.
            stats.degraded = True
            pool.shutdown(wait=False, cancel_futures=True)
            if initializer is not None:
                initializer(*initargs)
            harvest_done()
            for flight in pending.values():
                flight.attempts += 1
            survivors = [pending.pop(index) for index in sorted(pending)]
            for flight in chain(survivors, starmap(_Flight, source)):
                if flight.attempts >= retry.max_attempts:
                    ready[flight.index] = settle(flight)
                else:
                    ready[flight.index] = _run_inline(
                        call, flight.index, flight.item, flight.attempts,
                        retry, on_poison, on_retry, stats)
                while emit in ready:
                    value = ready.pop(emit)
                    emit += 1
                    yield value
            return
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
