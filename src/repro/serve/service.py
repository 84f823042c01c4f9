"""The embeddable annotation service: lifecycle, one kernel, metrics.

:class:`AnnotationService` is the serving counterpart to the learning
engine's :class:`~repro.core.hoiho.Hoiho`: where Hoiho turns training
pairs into a :class:`HoihoResult`, the service turns a ``HoihoResult``
into an always-on annotator with

* **lifecycle** -- load from an in-memory result, a conventions JSON
  string/file (the ``repro-hoiho learn --save`` format), or an
  :class:`~repro.store.ArtifactStore` entry; ``warm()`` pre-compiles
  every plan; ``reload_*`` swaps in a new convention set without
  recreating the service (in-flight callers keep the old index);
* **one kernel** -- :meth:`AnnotationService.annotate_entries` turns
  hostnames into ``(asn, suffix)`` entries.  Every other entry point
  is defined once, on :class:`Annotator`, as a projection of it:
  :meth:`~Annotator.annotate_one` is a batch of one,
  :meth:`~Annotator.annotate_batch` takes the ASN column and
  :meth:`~Annotator.annotate_pairs` streams one name at a time.  All
  of them tolerate malformed hostnames (``None``/empty/non-string
  inputs annotate as ``None`` and count as ``malformed``, they never
  raise);
* **observability** -- each kernel call folds its outcome into the
  service's :class:`~repro.obs.metrics.MetricsRegistry` once:
  ``requests``, ``annotated``, ``misses`` (known suffix, no pattern
  match, plus unknown suffixes and malformed inputs), ``malformed``,
  per-suffix ``extracted`` counts, a ``latency_seconds`` histogram,
  and the memo's ``memo_hits``/``memo_misses``/``memo_evictions``;
* **memoization** -- a bounded LRU
  :class:`~repro.serve.memo.AnnotationMemo` keyed on the normalized
  hostname fronts the trie + regex pipeline (production PTR streams
  are Zipf-skewed, so repeats dominate).  The live ``(index, memo)``
  pair is published as one tuple, read once per kernel call, and
  swapped as one assignment on ``reload_*`` -- a call always sees a
  consistent pair and a reload atomically invalidates the memo.

Latency semantics: the kernel records its call's *amortised per-item*
latency once per item.  For a single request that is the request's
own wall time; for a batch the histogram still counts every request,
but percentiles describe the mean item, not the slowest one.

Bulk file/stdin workloads should go through
:class:`~repro.serve.engine.BulkAnnotator`, which wraps a service in
chunked streaming and optional process fan-out; its worker processes
each hold a service of their own and call the same kernel per chunk.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.io import conventions_from_json, conventions_to_json
from repro.core.select import HoihoResult
from repro.serve.index import DispatchIndex, normalize_hostname
from repro.serve.memo import ABSENT, AnnotationMemo, DEFAULT_MEMO_SIZE, \
    Entry
from repro.obs.metrics import MetricsRegistry
from repro.store import KIND_HOIHO, ArtifactStore, fingerprint

#: Shared ``(asn, suffix)`` entry for malformed inputs and plain
#: misses -- one allocation for the whole module.
_NO_MATCH: Tuple[None, None] = (None, None)

#: What the kernel probes when the memo is off: always empty, never
#: written.
_NO_MEMO: "OrderedDict[str, Entry]" = OrderedDict()


def iter_hostnames(lines: Iterable[str]) -> Iterator[str]:
    """Hostnames from raw input lines, lazily.

    Mirrors the CLI's historical parsing: first whitespace-separated
    field, blank lines and ``#`` comments skipped.
    """
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line.split()[0]


class Annotator:
    """The per-request API, defined once over one kernel.

    Subclasses supply :meth:`annotate_entries`; every entry point here
    is a projection of a call to it, so a wrapper such as
    :class:`~repro.serve.shadow.ShadowService` overrides the kernel
    alone and inherits the rest.
    """

    def annotate_entries(self, hostnames: Iterable[object],
                         ) -> List[Entry]:
        """Annotate many hostnames into ``(asn, suffix)`` entries."""
        raise NotImplementedError

    def annotate_one(self, hostname: object) -> Optional[int]:
        """Annotate one hostname; ``None`` on miss or malformed input."""
        return self.annotate_entries((hostname,))[0][0]

    def annotate_batch(self,
                       hostnames: Iterable[object]) -> List[Optional[int]]:
        """Annotate many hostnames, preserving input order: the
        kernel's ASN column, the shape every existing consumer wants."""
        return [entry[0] for entry in self.annotate_entries(hostnames)]

    def annotate_pairs(self, hostnames: Iterable[str],
                       ) -> Iterator[Tuple[str, Optional[int]]]:
        """Lazily yield ``(hostname, annotation)`` in input order, one
        kernel call per hostname."""
        for hostname in hostnames:
            yield hostname, self.annotate_one(hostname)


class AnnotationService(Annotator):
    """Hostname -> ASN annotation over a learned convention set.

    >>> from repro.core.hoiho import Hoiho
    >>> from repro.core.types import TrainingItem
    >>> result = Hoiho().run([
    ...     TrainingItem("as%d.pop%d.example.com" % (a, i % 3), a)
    ...     for i, a in enumerate([3356, 1299, 174, 2914, 6453])])
    >>> service = AnnotationService(result)
    >>> service.annotate_one("as8075.pop9.example.com")
    8075
    >>> service.annotate_one("AS8075.pop9.Example.Com.")   # normalised
    8075
    >>> service.annotate_one("www.unknown.net") is None
    True
    >>> service.metrics.counter("requests").value
    3
    """

    def __init__(self, result: HoihoResult,
                 metrics: Optional[MetricsRegistry] = None,
                 usable_only: bool = False,
                 memo_size: int = DEFAULT_MEMO_SIZE,
                 fuse: bool = True) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.usable_only = usable_only
        self.memo_size = memo_size
        self.fuse = fuse
        self.result = result
        # The authoritative (index, memo) pair: read once per kernel
        # call, swapped as one assignment on reload, so every call sees
        # a consistent index/memo combination (GIL-atomic either way).
        self._state: Tuple[DispatchIndex, Optional[AnnotationMemo]] = (
            DispatchIndex.from_result(result, usable_only, fuse=fuse),
            AnnotationMemo(memo_size) if memo_size else None)
        # Counters retired from memos replaced by reloads, so memo
        # totals stay cumulative over the service's lifetime.
        self._memo_retired = {"hits": 0, "misses": 0, "evictions": 0}
        # Held once per kernel call around its metrics fold, by
        # snapshots, and by the reload's memo retire-and-swap (see
        # repro.obs.metrics for the contract it buys).
        self._fold_lock = threading.Lock()
        # Created up front so snapshots show zeros before traffic.
        self._requests = self.metrics.counter("requests")
        self._annotated = self.metrics.counter("annotated")
        self._misses = self.metrics.counter("misses")
        self._malformed = self.metrics.counter("malformed")
        self._extracted = self.metrics.labelled("extracted")
        self._latency = self.metrics.histogram("latency_seconds")
        self._memo_hits = self.metrics.counter("memo_hits")
        self._memo_misses = self.metrics.counter("memo_misses")
        self._memo_evictions = self.metrics.counter("memo_evictions")

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def from_json(cls, text: str, **kwargs: object) -> "AnnotationService":
        """Build from :func:`conventions_to_json` output."""
        return cls(conventions_from_json(text), **kwargs)  # type: ignore

    @classmethod
    def from_json_file(cls, path: str,
                       **kwargs: object) -> "AnnotationService":
        """Build from a conventions JSON file (``learn --save``)."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read(), **kwargs)

    @classmethod
    def from_store(cls, store: ArtifactStore, payload: Mapping,
                   **kwargs: object) -> "AnnotationService":
        """Build from a cached learning result in ``store``.

        ``payload`` is the fingerprint payload the result was stored
        under (see ``_learn_items`` in :mod:`repro.cli`).  Raises
        :class:`LookupError` when the store has no such artifact.
        """
        result = store.get(KIND_HOIHO, payload)
        if result is None:
            raise LookupError(
                "no cached conventions for payload (fingerprint %s)"
                % fingerprint(payload))
        return cls(result, **kwargs)  # type: ignore[arg-type]

    def to_json(self) -> str:
        """The current convention set, serialized."""
        return conventions_to_json(self.result)

    @property
    def index(self) -> DispatchIndex:
        """The live dispatch index."""
        return self._state[0]

    @property
    def memo(self) -> Optional[AnnotationMemo]:
        """The live annotation memo (``None`` when ``memo_size=0``)."""
        return self._state[1]

    def warm(self) -> int:
        """Pre-compile every plan; returns the number of plans."""
        return self._state[0].warm()

    def reload_result(self, result: HoihoResult) -> int:
        """Swap in a new convention set; returns the new plan count.

        The replacement index is fully built (and warmed) and paired
        with a **fresh memo** before the single-assignment swap, so
        concurrent readers only ever see a complete index together with
        a memo whose entries were computed against that same index --
        the reload invalidates the memo atomically.  The replaced
        memo's counters are retired into the cumulative totals.
        """
        index = DispatchIndex.from_result(result, self.usable_only,
                                          fuse=self.fuse)
        index.warm()
        memo = AnnotationMemo(self.memo_size) if self.memo_size else None
        with self._fold_lock:
            old_memo = self._state[1]
            if old_memo is not None:
                retired = self._memo_retired
                retired["hits"] += old_memo.hits
                retired["misses"] += old_memo.misses
                retired["evictions"] += old_memo.evictions
            self.result = result
            self._state = (index, memo)
            self._sync_memo_counters(memo)
        return len(index)

    def reload_json(self, text: str) -> int:
        """Reload from serialized conventions."""
        return self.reload_result(conventions_from_json(text))

    def reload_json_file(self, path: str) -> int:
        """Reload from a conventions JSON file."""
        with open(path, encoding="utf-8") as handle:
            return self.reload_json(handle.read())

    def reload_store(self, store: ArtifactStore, payload: Mapping) -> int:
        """Reload from a cached learning result in ``store``."""
        result = store.get(KIND_HOIHO, payload)
        if result is None:
            raise LookupError(
                "no cached conventions for payload (fingerprint %s)"
                % fingerprint(payload))
        return self.reload_result(result)  # type: ignore[arg-type]

    # -- the kernel ---------------------------------------------------------

    def annotate_entries(self, hostnames: Iterable[object], *,
                         _prenormalized: bool = False) -> List[Entry]:
        """Annotate many hostnames into ``(asn, suffix)`` entries.

        The one annotation kernel: every serving path -- single
        requests, batches, HTTP, bulk workers -- is a projection of a
        call here.  One loop over a consistent ``(index, memo)``
        snapshot, then one metrics fold per call, under the service's
        fold lock (one acquire per call).  It reaches into the
        memo's internals (one dict probe per hit, counters banked once
        per call) because a bound-method call per hostname is
        measurable at millions of requests per second.  With the memo
        off, the probe goes to an empty dict and nothing is stored, so
        the loop is the same either way.  Hits append the stored entry
        tuple as-is and misses share one ``(None, None)``, so the hot
        path allocates only for fresh extractions.  The latency
        histogram records the call's amortised per-item time once per
        request, keeping ``count == requests``.

        ``_prenormalized=True`` asserts every item is already a
        :func:`normalize_hostname` output (a lowercase key, or ``None``
        for malformed).  It is private to
        :class:`~repro.serve.shadow.ShadowService`, which normalizes
        once for two convention sets; an unnormalized key would poison
        the memo.
        """
        start = time.perf_counter()
        index, memo = self._state
        if memo is None:
            data, put = _NO_MEMO, None
        else:
            data, put = memo.data, memo.put
        probe = data.get
        touch = data.move_to_end
        results: List[Entry] = []
        append = results.append
        annotated = malformed = hits = 0
        suffix_counts: dict = {}
        for hostname in hostnames:
            normalized = hostname if _prenormalized \
                else normalize_hostname(hostname)
            if normalized is None:
                malformed += 1
                append(_NO_MATCH)
                continue
            entry = probe(normalized, ABSENT)
            if entry is ABSENT:
                plan = index.lookup_normalized(normalized)
                asn = plan.extract(normalized) if plan is not None else None
                entry = _NO_MATCH if asn is None else (asn, plan.suffix)
                if put is not None:
                    put(normalized, entry)
            else:
                hits += 1
                try:
                    touch(normalized)
                except KeyError:
                    pass  # concurrently evicted
            suffix = entry[1]
            if suffix is not None:
                annotated += 1
                suffix_counts[suffix] = suffix_counts.get(suffix, 0) + 1
            append(entry)
        count = len(results)
        elapsed = time.perf_counter() - start
        with self._fold_lock:
            if memo is not None:
                memo.hits += hits
                memo.misses += count - malformed - hits
            self._requests.inc(count)
            if annotated:
                self._annotated.inc(annotated)
            if count > annotated:
                self._misses.inc(count - annotated)
            if malformed:
                self._malformed.inc(malformed)
            extracted = self._extracted
            for suffix, n in suffix_counts.items():
                extracted.inc(suffix, n)
            if count:
                self._latency.observe_many(elapsed / count, count)
        return results

    # -- observability -----------------------------------------------------

    def _sync_memo_counters(self, memo: Optional[AnnotationMemo]) -> None:
        """Catch the registry's memo counters up to ``memo``'s tallies.

        The hot path banks hits/misses on the memo object itself (plain
        int adds) rather than going through ``Counter.inc`` per probe;
        this folds cumulative totals -- retired memos plus the live one
        -- into the registry before anyone reads a snapshot.  The memo
        is passed in (not re-read from ``self._state``) so callers that
        also read the state tuple describe one consistent state.
        """
        retired = self._memo_retired
        totals = dict(retired)
        if memo is not None:
            totals["hits"] += memo.hits
            totals["misses"] += memo.misses
            totals["evictions"] += memo.evictions
        for counter, key in ((self._memo_hits, "hits"),
                             (self._memo_misses, "misses"),
                             (self._memo_evictions, "evictions")):
            delta = totals[key] - counter.value
            if delta > 0:
                counter.inc(delta)

    def stats(self) -> dict:
        """JSON-ready metrics snapshot (see ``MetricsRegistry``).

        Taken under the fold lock, so it never lands inside a kernel
        call's fold or a reload's memo swap.  The ``(index, memo)``
        tuple is read exactly once and threaded through: reading it
        again after ``snapshot()`` would let a concurrent reload pair
        one state's counters with another state's memo/fused-plan
        fields.
        """
        with self._fold_lock:
            index, memo = self._state
            self._sync_memo_counters(memo)
            snapshot = self.metrics.snapshot()
        snapshot["suffixes_indexed"] = len(index)
        snapshot["fused_plans"] = index.fused_plans()
        snapshot["memo"] = memo.stats() if memo is not None else None
        return snapshot

    def __repr__(self) -> str:
        return "AnnotationService(%d suffixes, %d requests)" % (
            len(self._state[0]), self._requests.value)
