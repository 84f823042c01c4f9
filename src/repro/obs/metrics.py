"""Counters and histograms: the metrics half of ``repro.obs``.

Promoted from ``repro.serve.metrics`` (which now re-exports from here)
so the serving layer, the learner, the snapshot pipeline, and the
artifact store all share one registry vocabulary.  This module provides
the three primitives Prometheus-style systems offer (counter, labelled
counter family, histogram) as plain dict-backed objects cheap enough to
update on every request, plus a :class:`MetricsRegistry` that owns them
and renders one-screen summaries.  ``repro.obs.prom`` renders any
snapshot in Prometheus text exposition format.

Histogram bucket semantics (deterministic by construction):

* Buckets are **upper-inclusive**: bucket ``i`` covers the half-open
  interval ``(bounds[i-1], bounds[i]]`` (with an implicit lower edge of
  0 for bucket 0).  A value exactly equal to ``bounds[i]`` lands in
  bucket ``i`` because ``observe`` uses ``bisect.bisect_left``, which
  returns the *leftmost* insertion point -- i.e. the index of the bound
  itself when the value ties it.  This matches Prometheus's
  cumulative-``le`` convention.
* Values strictly above the last bound land in the single overflow
  bucket (rendered as ``+Inf`` by the prom exposition); percentiles
  that resolve there report the observed maximum rather than
  extrapolating past the bounds.
* Percentile interpolation is clamped to the observed ``[min, max]``
  range, so a one-sample histogram reports the sample itself for every
  percentile and an empty histogram reports 0.0 -- neither divides by
  zero.

Everything here is single-process state: parallel stages aggregate
worker results into the parent's registry rather than sharing one
across processes.

Concurrency contract: no instrument locks.  ``Counter.inc``,
``LabelledCounter.inc`` and ``Histogram.observe`` are read-modify-write
sequences (``observe`` touches five fields), and the interpreter may
switch threads in the middle of one, losing an update or letting a
snapshot see a bucket without its count.  An owner that updates a
registry from several threads takes one lock of its own around those
updates *and* around its snapshots.  The HTTP server
(``repro.serve.http.AnnotationHTTPServer``) is such an owner: each
request's ``http_requests`` increment, ``http_responses`` status count
and ``http_request_seconds`` observation are one update under its
accounting lock, and every snapshot it takes holds that lock.  So in
any snapshot it publishes, ``http_requests`` equals the
``http_request_seconds`` count, and equals the sum of
``http_responses`` plus the requests whose client left before a reply
could be written.

The annotation service (``repro.serve.service.AnnotationService``) is
the other owner.  Its counters ``requests``, ``annotated``,
``misses``, ``malformed``, the per-suffix ``extracted`` family and the
``latency_seconds`` histogram are updated in one place: the fold at
the end of each call to its one kernel, ``annotate_entries``, which
every serving path goes through.  The fold runs under the service's
fold lock (one acquire per call, not per hostname), and ``stats()``
snapshots under the same lock.  A call adds ``n`` to ``requests``, its
annotated and missed counts (which sum to ``n``) to ``annotated`` and
``misses``, and ``n`` samples to ``latency_seconds``.  So in every
snapshot the service takes, ``requests == annotated + misses ==``
the latency count, and once concurrent callers have returned it
equals the hostnames annotated, reloads included;
``tests/serve/test_service_accounting.py`` stress-tests exactly that.
The lock is needed: before Python 3.10 the interpreter may switch
threads between the read and the write of a single ``+=`` on an
attribute.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 1us .. 1s, log-spaced 1-2-5.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1, 1.0,
)

#: Percentiles rendered by default.
DEFAULT_PERCENTILES = (0.50, 0.90, 0.99)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up (got %d)" % amount)
        self.value += amount

    def __repr__(self) -> str:
        return "Counter(%s=%d)" % (self.name, self.value)


class LabelledCounter:
    """A family of counters keyed by one label (e.g. suffix)."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: Dict[str, int] = {}

    def inc(self, label: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter for ``label``."""
        if amount < 0:
            raise ValueError("counters only go up (got %d)" % amount)
        self.values[label] = self.values.get(label, 0) + amount

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` largest labels, count-descending then name."""
        return sorted(self.values.items(),
                      key=lambda pair: (-pair[1], pair[0]))[:n]

    def __repr__(self) -> str:
        return "LabelledCounter(%s, %d labels)" % (self.name,
                                                   len(self.values))


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    See the module docstring for the exact bucket-edge semantics
    (upper-inclusive via ``bisect_left``; overflow past the last
    bound; percentiles clamped to the observed range).
    """

    __slots__ = ("name", "bounds", "buckets", "overflow", "count",
                 "total", "minimum", "maximum")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.buckets = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample.

        ``bisect_left`` makes the edge case deterministic: a value
        exactly equal to ``bounds[i]`` gets index ``i`` (the bound's
        own slot), so every bucket is upper-inclusive.  ``bisect_right``
        would instead push ties into the next bucket up, which breaks
        the Prometheus ``le`` reading of the bounds.
        """
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.buckets[index] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` samples that all equal ``value``.

        The batch counterpart to :meth:`observe`: one bisect and one
        bucket update however many samples the batch carried.  The
        annotation batch path uses this to record amortised per-item
        latency while keeping the histogram's ``count`` equal to the
        number of requests.
        """
        if count < 0:
            raise ValueError("sample count must be >= 0 (got %d)" % count)
        if count == 0:
            return
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.buckets[index] += count
        else:
            self.overflow += count
        self.count += count
        self.total += value * count
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """The ``fraction`` (0..1] percentile, bucket-interpolated.

        Within the winning bucket the estimate interpolates linearly
        between its lower and upper bound, then clamps to the observed
        ``[min, max]`` range: a one-sample histogram therefore reports
        the sample itself (not a bucket midpoint), and no path divides
        by the sample count or an empty bucket.  Samples past the last
        bound report the observed maximum.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1], got %r" % fraction)
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        seen = 0
        for index, bucket in enumerate(self.buckets):
            if bucket == 0:
                continue
            lower = self.bounds[index - 1] if index else 0.0
            upper = self.bounds[index]
            if seen + bucket >= target:
                within = (target - seen) / bucket
                return self._clamp(lower + (upper - lower) * within)
            seen += bucket
        return self.maximum if self.maximum is not None else 0.0

    def _clamp(self, estimate: float) -> float:
        if self.minimum is not None and estimate < self.minimum:
            return self.minimum
        if self.maximum is not None and estimate > self.maximum:
            return self.maximum
        return estimate

    @classmethod
    def from_delta(cls, name: str, bounds: Sequence[float],
                   buckets: Sequence[int], overflow: int = 0,
                   count: Optional[int] = None, total: float = 0.0,
                   minimum: Optional[float] = None,
                   maximum: Optional[float] = None) -> "Histogram":
        """Rebuild a histogram from pre-counted buckets.

        The windowed-telemetry constructor: ``repro.obs.timeseries``
        folds per-window bucket *deltas* and needs percentiles over
        them with exactly the semantics :meth:`percentile` hardened
        (upper-inclusive edges, overflow reporting the observed max,
        clamping to ``[min, max]``, the one-sample and empty cases) --
        so it rebuilds a real histogram instead of reimplementing the
        interpolation.  ``count`` defaults to the bucket total;
        ``minimum``/``maximum`` are optional clamp bounds (a window
        delta carries the cumulative extremes, which bracket every
        windowed sample).
        """
        hist = cls(name, bounds)
        if len(buckets) != len(hist.buckets):
            raise ValueError(
                "histogram %r delta has %d buckets for %d bounds"
                % (name, len(buckets), len(hist.buckets)))
        if overflow < 0 or any(b < 0 for b in buckets):
            raise ValueError(
                "histogram %r delta has negative bucket counts" % name)
        hist.buckets = [int(b) for b in buckets]
        hist.overflow = int(overflow)
        observed = sum(hist.buckets) + hist.overflow
        hist.count = observed if count is None else int(count)
        if hist.count != observed:
            raise ValueError(
                "histogram %r delta count %d != bucket total %d"
                % (name, hist.count, observed))
        hist.total = float(total)
        hist.minimum = minimum
        hist.maximum = maximum
        return hist

    def __repr__(self) -> str:
        return "Histogram(%s, n=%d, mean=%.6f)" % (self.name, self.count,
                                                   self.mean)


class MetricsRegistry:
    """Owner of a component's counters, families, and histograms.

    Instruments are created on first use and keep their identity for
    the registry's lifetime (``reset()`` zeroes values, not identities).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._labelled: Dict[str, LabelledCounter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def labelled(self, name: str) -> LabelledCounter:
        """The labelled family called ``name``, created on first use."""
        if name not in self._labelled:
            self._labelled[name] = LabelledCounter(name)
        return self._labelled[name]

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
                  ) -> Histogram:
        """The histogram called ``name``, created on first use."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, bounds)
        return self._histograms[name]

    def reset(self) -> None:
        """Zero every instrument, keeping identities."""
        for counter in self._counters.values():
            counter.value = 0
        for family in self._labelled.values():
            family.values.clear()
        for histogram in self._histograms.values():
            histogram.buckets = [0] * len(histogram.bounds)
            histogram.overflow = 0
            histogram.count = 0
            histogram.total = 0.0
            histogram.minimum = None
            histogram.maximum = None

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of every instrument's current state.

        Histogram entries carry the raw ``bounds``/``buckets``/
        ``overflow``/``sum`` alongside the derived summary so the
        Prometheus exposition (and any later merge) can reconstruct
        the distribution, not just its percentiles.
        """
        return {
            "counters": {name: counter.value
                         for name, counter in sorted(self._counters.items())},
            "labelled": {name: dict(sorted(family.values.items()))
                         for name, family in sorted(self._labelled.items())},
            "histograms": {
                name: {
                    "count": hist.count,
                    "mean": hist.mean,
                    "min": hist.minimum,
                    "max": hist.maximum,
                    "sum": hist.total,
                    "bounds": list(hist.bounds),
                    "buckets": list(hist.buckets),
                    "overflow": hist.overflow,
                    "percentiles": {
                        ("p%02d" % round(f * 100)): hist.percentile(f)
                        for f in DEFAULT_PERCENTILES} if hist.count else {},
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Additively fold a :meth:`snapshot` payload into this registry.

        The cross-process aggregation primitive: the pre-fork HTTP
        server's parent merges each worker's flushed snapshot into one
        registry before rendering ``/metrics``, and ``serve-stats``
        can aggregate saved snapshot files the same way.  Counters and
        labelled counters add; histograms add bucket-by-bucket (the
        payload carries raw ``bounds``/``buckets``/``overflow``/``sum``
        exactly so this is possible), preserving the upper-inclusive
        edge semantics -- a sample that landed in bucket ``i`` on the
        worker lands in bucket ``i`` here, including ties on a bound
        and overflow past the last one.  ``min``/``max`` merge so
        percentile clamping still brackets the union of samples.

        A histogram with the same name but different bounds cannot be
        merged meaningfully; that raises ``ValueError`` rather than
        silently mis-binning.  Keys outside the three instrument maps
        (e.g. the ``memo``/``fused_plans`` extras of
        ``AnnotationService.stats()``) are ignored.
        """
        counters = snapshot.get("counters") or {}
        for name, value in counters.items():  # type: ignore[union-attr]
            self.counter(name).inc(int(value))
        labelled = snapshot.get("labelled") or {}
        for name, family in labelled.items():  # type: ignore[union-attr]
            target = self.labelled(name)
            for label, value in family.items():
                target.inc(label, int(value))
        histograms = snapshot.get("histograms") or {}
        for name, payload in histograms.items():  # type: ignore[union-attr]
            bounds = tuple(payload.get("bounds") or DEFAULT_LATENCY_BOUNDS)
            hist = self.histogram(name, bounds)
            if hist.bounds != bounds:
                raise ValueError(
                    "cannot merge histogram %r: bounds %r != %r"
                    % (name, bounds, hist.bounds))
            buckets = payload.get("buckets") or [0] * len(bounds)
            if len(buckets) != len(hist.buckets):
                raise ValueError(
                    "cannot merge histogram %r: %d buckets != %d"
                    % (name, len(buckets), len(hist.buckets)))
            for index, count in enumerate(buckets):
                hist.buckets[index] += count
            hist.overflow += payload.get("overflow", 0)
            hist.count += payload.get("count", 0)
            hist.total += payload.get("sum", 0.0)
            low = payload.get("min")
            if low is not None and (hist.minimum is None
                                    or low < hist.minimum):
                hist.minimum = low
            high = payload.get("max")
            if high is not None and (hist.maximum is None
                                     or high > hist.maximum):
                hist.maximum = high

    def render(self) -> str:
        """Human-readable one-screen summary."""
        return render_snapshot(self.snapshot())


def render_snapshot(snapshot: Dict[str, object],
                    top_labels: int = 10) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` payload as text.

    A module-level function so saved snapshots (``repro-hoiho serve
    --metrics-out``) render identically to live registries
    (``repro-hoiho serve-stats --metrics``).
    """
    lines = ["serve metrics"]
    counters: Dict[str, int] = snapshot.get("counters", {})  # type: ignore
    for name in sorted(counters):
        lines.append("  %-24s %d" % (name, counters[name]))
    labelled: Dict[str, Dict[str, int]] = \
        snapshot.get("labelled", {})  # type: ignore
    for name in sorted(labelled):
        family = labelled[name]
        ranked = sorted(family.items(), key=lambda p: (-p[1], p[0]))
        lines.append("  %s (%d labels):" % (name, len(family)))
        for label, value in ranked[:top_labels]:
            lines.append("    %-26s %d" % (label, value))
    histograms: Dict[str, Dict[str, object]] = \
        snapshot.get("histograms", {})  # type: ignore
    for name in sorted(histograms):
        hist = histograms[name]
        if not hist.get("count"):
            lines.append("  %-24s (no samples)" % name)
            continue
        percentiles = hist.get("percentiles", {})
        rendered = "  ".join("%s=%.6fs" % (key, percentiles[key])
                             for key in sorted(percentiles))
        lines.append("  %-24s n=%d mean=%.6fs  %s"
                     % (name, hist["count"], hist["mean"], rendered))
    return "\n".join(lines)


def merge_outcomes(registry: MetricsRegistry, requests: int,
                   annotated: int, errors: int = 0,
                   retries: int = 0) -> None:
    """Fold a bulk chunk's aggregate outcome into ``registry``.

    The bulk engine's worker processes keep no shared state; the parent
    calls this per chunk so ``requests``/``annotated``/``misses`` stay
    live even in parallel runs (per-suffix counts and latencies remain
    a per-request-API feature).  ``errors`` counts hostnames that were
    dead-lettered (they still count as requests and misses) and
    ``retries`` counts retried dispatches; both default to 0 so the
    fault-free path stays unchanged.
    """
    registry.counter("requests").inc(requests)
    registry.counter("annotated").inc(annotated)
    registry.counter("misses").inc(requests - annotated)
    if errors:
        registry.counter("errors").inc(errors)
    if retries:
        registry.counter("retries").inc(retries)
