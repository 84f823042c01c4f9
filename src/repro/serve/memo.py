"""Zipf-aware memoization for the annotation hot path.

Production PTR streams are heavily skewed: a small set of router
interfaces dominates any snapshot's hostname traffic (rank-frequency is
roughly Zipfian), so the same hostnames are annotated over and over.
:class:`AnnotationMemo` is a bounded LRU cache keyed on the *normalized*
hostname, sitting in front of the trie lookup + regex extraction: a hit
collapses the whole dispatch pipeline into one dict probe.

The memo stores the complete annotation outcome -- ``(asn, suffix)``,
with ``asn`` ``None`` for misses (negative lookups are cached too:
unknown suffixes repeat just as hard) and ``suffix`` the owning plan's
suffix when an ASN was extracted (so per-suffix metrics stay exact on
hits).  Malformed inputs never reach the memo (they have no normalized
key).

Concurrency: all state lives in one :class:`~collections.OrderedDict`
whose individual operations are atomic under the GIL.  Reads and writes
from multiple threads cannot corrupt the structure; the recency touch
(``move_to_end``) is best-effort under a race (a key concurrently
evicted is simply not touched).  The service layer swaps the *whole
memo object* atomically on hot reload -- see
``AnnotationService.reload_result`` -- so a reload can never serve a
stale entry against a new convention set.

The memo does not probe for its callers: the service kernel
(``AnnotationService.annotate_entries``) reads :attr:`data` directly,
touches recency on a hit, and banks the call's hit and miss counts on
:attr:`hits`/:attr:`misses` once, under the service's fold lock.
:meth:`put` counts its own evictions without a lock, so under
free-threaded interpreters ``evictions`` is a statistic, not a ledger.
The cached values themselves are always exact.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

#: Default memo capacity.  At ~100 bytes per entry this is a few MB --
#: small against a serving process, large against the head of a Zipf
#: distribution (the top 64Ki hostnames of an ITDK PTR snapshot cover
#: the overwhelming majority of requests).
DEFAULT_MEMO_SIZE = 65536

#: Sentinel distinguishing "not memoized" from a memoized miss
#: (``(None, None)`` is a legitimate cached outcome).
ABSENT = object()

#: A memo entry: ``(asn, owning suffix)``; both ``None`` on a miss.
Entry = Tuple[Optional[int], Optional[str]]


class AnnotationMemo:
    """Bounded LRU memo over complete annotation outcomes.

    >>> memo = AnnotationMemo(capacity=2)
    >>> memo.data.get("a.example.com", ABSENT) is ABSENT
    True
    >>> memo.put("a.example.com", (42, "example.com"))
    >>> memo.data["a.example.com"]
    (42, 'example.com')
    >>> memo.put("b.example.com", (None, None))   # misses cache too
    >>> memo.put("c.example.com", (7, "example.com"))
    >>> list(memo.data)                           # "a" was least recent
    ['b.example.com', 'c.example.com']
    >>> memo.stats()["evictions"]
    1
    """

    __slots__ = ("capacity", "data", "hits", "misses", "evictions")

    def __init__(self, capacity: int = DEFAULT_MEMO_SIZE) -> None:
        if capacity < 1:
            raise ValueError("memo capacity must be >= 1, got %d"
                             % capacity)
        self.capacity = capacity
        self.data: "OrderedDict[str, Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def put(self, key: str, value: Entry) -> None:
        """Insert ``value`` under ``key`` (refreshing its recency --
        plain assignment keeps an existing key's position), evicting
        the least recently used entry when over capacity."""
        data = self.data
        data[key] = value
        try:
            data.move_to_end(key)
        except KeyError:
            pass  # concurrently cleared; recency touch is best-effort
        if len(data) > self.capacity:
            try:
                data.popitem(last=False)
                self.evictions += 1
            except KeyError:
                pass  # concurrent clear/eviction emptied the dict

    def clear(self) -> None:
        """Drop every entry (counters keep their cumulative values)."""
        self.data.clear()

    def __len__(self) -> int:
        return len(self.data)

    def stats(self) -> Dict[str, object]:
        """JSON-ready snapshot of the memo's work."""
        hits, misses = self.hits, self.misses
        probes = hits + misses
        return {
            "size": len(self.data),
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "evictions": self.evictions,
            "hit_rate": hits / probes if probes else 0.0,
        }

    def __repr__(self) -> str:
        return "AnnotationMemo(%d/%d, %d hits, %d misses)" % (
            len(self.data), self.capacity, self.hits, self.misses)
