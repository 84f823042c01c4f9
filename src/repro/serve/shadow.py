"""``repro.serve.shadow`` -- side-by-side convention sets, measured.

The paper's conventions go stale as operators rename interfaces
(Section 6); the production answer is to *shadow* a freshly learned
candidate set behind the live one before trusting it.
:class:`ShadowService` wraps a primary
:class:`~repro.serve.service.AnnotationService` plus a candidate
convention set loaded side-by-side: every request is annotated against
**both**, callers only ever see the primary's answer, and the
per-suffix agreement between the two accumulates in a
:class:`ShadowLedger` until the operator reads the disagreement report
and decides to promote (or discard) the candidate.

Design points:

* **One kernel override** -- ``ShadowService`` is an
  :class:`~repro.serve.service.Annotator` that overrides only
  ``annotate_entries``: normalize once, annotate the keys against both
  sides, fold the ledger.  ``annotate_one`` / ``annotate_batch`` /
  ``annotate_pairs`` are inherited, and the rest of the
  ``AnnotationService`` surface (``warm`` / ``reload_*`` / ``stats`` /
  ``index`` / ``memo`` / ``to_json``) delegates to the primary, so
  :class:`~repro.serve.engine.BulkAnnotator` and the HTTP server
  compose with it unchanged.  (The bulk engine's *process fan-out*
  hands its workers the primary service alone; shadow comparison is a
  serving-process feature.)
* **Ledger lives in the registry** -- agreement counts are labelled
  counters (``shadow_agree`` / ``shadow_primary_only`` /
  ``shadow_candidate_only`` / ``shadow_conflict``, one label per
  suffix) plus ``shadow_requests``/``shadow_disagreements`` totals in
  the *primary's* :class:`~repro.obs.metrics.MetricsRegistry`.  They
  ride every ``stats()`` snapshot, so the pre-fork HTTP server's
  per-worker flushes merge fleet-wide through the existing
  ``MetricsRegistry.merge_snapshot`` -- no new aggregation machinery.
  Capped example hostnames per divergence class travel in the
  snapshot's ``shadow`` extra and are merged by
  :func:`merge_shadow_reports`.
* **Atomic state** -- the candidate service is published by a single
  attribute assignment (GIL-atomic), read once per kernel call;
  ``promote`` swaps the candidate's conventions into the primary
  through the existing atomic ``reload_result`` machinery and clears
  the ledger.
  Each side keeps its own memo, so the dual-annotation cost on a
  memo-warm Zipf stream stays near 2x a single set
  (``tests/integration/test_serve_bounds.py`` holds it under 3.0x).

Divergence classes per request (the suffix label is the side that
annotated; ``(none)`` when both missed):

=================  ====================================================
``agree``          both sides returned the same ASN (or both missed)
``primary_only``   primary annotated, candidate missed
``candidate_only`` candidate annotated, primary missed
``conflict``       both annotated, different ASNs
=================  ====================================================
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.io import conventions_from_json
from repro.core.select import HoihoResult
from repro.obs.metrics import MetricsRegistry
from repro.serve.index import DispatchIndex
from repro.serve.memo import AnnotationMemo, Entry
from repro.serve.service import AnnotationService, Annotator, \
    normalize_hostname

#: Example hostnames retained per divergence class (first-seen wins;
#: enough to eyeball what kind of names disagree, small enough to ride
#: every metrics snapshot).
EXAMPLE_CAP = 5

#: Per-suffix label for requests neither side annotated.
MISS_LABEL = "(none)"

CLASS_AGREE = "agree"
CLASS_PRIMARY_ONLY = "primary_only"
CLASS_CANDIDATE_ONLY = "candidate_only"
CLASS_CONFLICT = "conflict"

#: The three classes that count as disagreement (and keep examples).
DIVERGENCE_CLASSES = (CLASS_PRIMARY_ONLY, CLASS_CANDIDATE_ONLY,
                      CLASS_CONFLICT)
ALL_CLASSES = (CLASS_AGREE,) + DIVERGENCE_CLASSES

#: Divergence class -> labelled-counter name in the registry.
SHADOW_COUNTER_NAMES = {
    CLASS_AGREE: "shadow_agree",
    CLASS_PRIMARY_ONLY: "shadow_primary_only",
    CLASS_CANDIDATE_ONLY: "shadow_candidate_only",
    CLASS_CONFLICT: "shadow_conflict",
}


class ShadowLedger:
    """Per-suffix agreement bookkeeping between two convention sets.

    Counts live as instruments of the supplied registry (see module
    docstring) so they snapshot, flush, and merge exactly like every
    other metric; the capped example lists are the only ledger-private
    state.  All mutation happens under one lock, so a reader never
    sees ``shadow_requests`` out of step with the class totals, and
    :meth:`clear` (candidate load / promote / primary reload) is a
    single epoch boundary.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        self._families = {cls: metrics.labelled(name)
                          for cls, name in SHADOW_COUNTER_NAMES.items()}
        self._requests = metrics.counter("shadow_requests")
        self._disagreements = metrics.counter("shadow_disagreements")
        self._lock = threading.Lock()
        self._examples: Dict[str, List[str]] = {
            cls: [] for cls in DIVERGENCE_CLASSES}

    def observe_entries(self, hostnames: Sequence[object],
                        primary: Sequence[Entry],
                        candidate: Sequence[Entry]) -> None:
        """Fold one batch of paired ``(asn, suffix)`` outcomes in.

        Classification runs lock-free over local dicts; the registry
        instruments and example lists are updated once per batch under
        the ledger lock (the hot path must not serialize per hostname).
        """
        agree_counts: Dict[str, int] = {}
        div_counts: Dict[str, Dict[str, int]] = {
            cls: {} for cls in DIVERGENCE_CLASSES}
        fresh: Dict[str, List[str]] = {
            cls: [] for cls in DIVERGENCE_CLASSES}
        agree_get = agree_counts.get
        for index, entry in enumerate(primary):
            shadow_entry = candidate[index]
            if entry == shadow_entry:
                # Fast path: byte-equal outcomes.  Misses are always
                # ``(None, None)``, so this covers agree-with-miss too,
                # and on a memo-warm agreeing stream it is the only
                # branch taken -- keep it to one compare + one count.
                label = entry[1]
                if label is None:
                    label = MISS_LABEL
                agree_counts[label] = agree_get(label, 0) + 1
                continue
            asn, suffix = entry
            shadow_asn, shadow_suffix = shadow_entry
            if asn == shadow_asn:
                # Same ASN from different conventions: still agreement.
                agree_counts[suffix] = agree_get(suffix, 0) + 1
                continue
            if asn is None:
                cls, label = CLASS_CANDIDATE_ONLY, shadow_suffix
            elif shadow_asn is None:
                cls, label = CLASS_PRIMARY_ONLY, suffix
            else:
                cls, label = CLASS_CONFLICT, suffix
            bucket = div_counts[cls]
            bucket[label] = bucket.get(label, 0) + 1
            examples = fresh[cls]
            if len(examples) < EXAMPLE_CAP:
                hostname = hostnames[index]
                examples.append(hostname if isinstance(hostname, str)
                                else repr(hostname))
        with self._lock:
            family = self._families[CLASS_AGREE]
            for label, count in agree_counts.items():
                family.inc(label, count)
            disagreements = 0
            for cls in DIVERGENCE_CLASSES:
                family = self._families[cls]
                for label, count in div_counts[cls].items():
                    family.inc(label, count)
                    disagreements += count
                stored = self._examples[cls]
                for hostname in fresh[cls]:
                    if len(stored) >= EXAMPLE_CAP:
                        break
                    stored.append(hostname)
            self._requests.inc(len(primary))
            if disagreements:
                self._disagreements.inc(disagreements)

    def observe_one(self, hostname: object, primary: Entry,
                    candidate: Entry) -> None:
        """Fold a single paired outcome in."""
        self.observe_entries((hostname,), (primary,), (candidate,))

    def clear(self) -> None:
        """Start a fresh comparison epoch (counts and examples to 0)."""
        with self._lock:
            for family in self._families.values():
                family.values.clear()
            self._requests.value = 0
            self._disagreements.value = 0
            for stored in self._examples.values():
                del stored[:]

    def examples(self) -> Dict[str, List[str]]:
        """A copy of the capped example hostnames per divergence class."""
        with self._lock:
            return {cls: list(stored)
                    for cls, stored in self._examples.items()}

    def disagreement_fraction(self) -> float:
        """Disagreeing requests over all shadowed requests (0 if none)."""
        with self._lock:
            requests = self._requests.value
            return (self._disagreements.value / requests
                    if requests else 0.0)


class ShadowService(Annotator):
    """An ``AnnotationService`` with a candidate set riding shotgun.

    >>> from repro.core.hoiho import Hoiho
    >>> from repro.core.types import TrainingItem
    >>> old = Hoiho().run([TrainingItem("as%d.pop%d.example.com" % (a, i), a)
    ...                    for i, a in enumerate([3356, 1299, 174, 2914])])
    >>> service = ShadowService(AnnotationService(old))
    >>> service.load_candidate(old) > 0     # identical candidate
    True
    >>> service.annotate_one("as8075.pop1.example.com")
    8075
    >>> service.report()["disagreements"]
    0

    Without a candidate loaded the service is a pure delegating
    wrapper -- annotation costs one extra call.
    """

    def __init__(self, primary: AnnotationService,
                 candidate: Optional[HoihoResult] = None) -> None:
        self.primary = primary
        self.metrics = primary.metrics
        self.ledger = ShadowLedger(primary.metrics)
        #: The live candidate service: published by single assignment
        #: (GIL-atomic), read once per request.
        self._candidate: Optional[AnnotationService] = None
        #: Serializes load/promote/clear against each other (readers
        #: never take it).
        self._swap_lock = threading.Lock()
        if candidate is not None:
            self.load_candidate(candidate)

    # -- candidate lifecycle -----------------------------------------------

    @property
    def candidate(self) -> Optional[AnnotationService]:
        """The candidate-side service (``None`` outside shadow runs)."""
        return self._candidate

    def load_candidate(self, result: HoihoResult) -> int:
        """Load (or replace) the candidate set; returns its plan count.

        The candidate gets its own registry (its counters must not
        pollute the primary's -- primary-side metrics stay identical
        to a plain service) and its own memo, built and warmed before
        the swap.  Loading starts a fresh ledger epoch.
        """
        candidate = AnnotationService(result,
                                      metrics=MetricsRegistry(),
                                      usable_only=self.primary.usable_only,
                                      memo_size=self.primary.memo_size)
        candidate.warm()
        with self._swap_lock:
            self._candidate = candidate
            self.ledger.clear()
        return len(candidate.index)

    def load_candidate_json(self, text: str) -> int:
        """Load the candidate from serialized conventions."""
        return self.load_candidate(conventions_from_json(text))

    def load_candidate_file(self, path: str) -> int:
        """Load the candidate from a conventions JSON file."""
        with open(path, encoding="utf-8") as handle:
            return self.load_candidate_json(handle.read())

    def promote(self) -> int:
        """Make the candidate the primary; returns the new plan count.

        The swap rides the primary's atomic ``reload_result`` (built
        and warmed before the single-assignment publish; in-flight
        requests keep the old index), the ledger clears, and the
        candidate slot empties -- the service keeps serving, now from
        the promoted set, until the next ``load_candidate``.  Raises
        :class:`LookupError` when no candidate is loaded.
        """
        with self._swap_lock:
            candidate = self._candidate
            if candidate is None:
                raise LookupError(
                    "no shadow candidate loaded; nothing to promote")
            self._candidate = None
            count = self.primary.reload_result(candidate.result)
            self.ledger.clear()
        return count

    # -- AnnotationService-compatible surface ------------------------------

    @property
    def result(self) -> HoihoResult:
        return self.primary.result

    @property
    def index(self) -> DispatchIndex:
        return self.primary.index

    @property
    def memo(self) -> Optional[AnnotationMemo]:
        return self.primary.memo

    @property
    def memo_size(self) -> int:
        return self.primary.memo_size

    @property
    def usable_only(self) -> bool:
        return self.primary.usable_only

    def to_json(self) -> str:
        """The *primary* convention set, serialized (what fan-out and
        reload consumers must see -- the candidate never leaks)."""
        return self.primary.to_json()

    def warm(self) -> int:
        """Warm both sides; returns the primary's plan count."""
        candidate = self._candidate
        if candidate is not None:
            candidate.warm()
        return self.primary.warm()

    def reload_result(self, result: HoihoResult) -> int:
        """Swap the *primary* set (candidate untouched, ledger cleared:
        comparisons against the old primary are no longer meaningful)."""
        count = self.primary.reload_result(result)
        self.ledger.clear()
        return count

    def reload_json(self, text: str) -> int:
        return self.reload_result(conventions_from_json(text))

    def reload_json_file(self, path: str) -> int:
        with open(path, encoding="utf-8") as handle:
            return self.reload_json(handle.read())

    def reload_store(self, store: object, payload: Mapping) -> int:
        count = self.primary.reload_store(store, payload)  # type: ignore
        self.ledger.clear()
        return count

    def annotate_entries(self, hostnames: Iterable[object],
                         ) -> List[Entry]:
        """The primary's entries; with a candidate loaded, both sides
        annotate the same keys and the ledger folds the comparison.

        This is the only kernel override: ``annotate_one``,
        ``annotate_batch`` and ``annotate_pairs`` come from
        :class:`~repro.serve.service.Annotator` unchanged.
        """
        candidate = self._candidate
        if candidate is None:
            return self.primary.annotate_entries(hostnames)
        if not isinstance(hostnames, (list, tuple)):
            hostnames = list(hostnames)  # both sides must see one stream
        # Normalize once for both sides: hostname scrubbing is pure, so
        # paying it per side would only inflate the shadow overhead.
        keys = [normalize_hostname(hostname) for hostname in hostnames]
        entries = self.primary.annotate_entries(keys, _prenormalized=True)
        shadow_entries = candidate.annotate_entries(keys,
                                                    _prenormalized=True)
        self.ledger.observe_entries(hostnames, entries, shadow_entries)
        return entries

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """The primary's snapshot plus a ``shadow`` extra.

        The shadow counters are already inside the snapshot's
        instrument maps (they live in the primary registry); the extra
        carries what instruments cannot: whether a candidate is loaded,
        its size, and the example hostnames per divergence class.
        ``MetricsRegistry.merge_snapshot`` ignores the extra;
        :func:`merge_shadow_reports` folds it across workers.
        """
        snapshot = self.primary.stats()
        candidate = self._candidate
        snapshot["shadow"] = {
            "active": candidate is not None,
            "candidate_suffixes": (len(candidate.index)
                                   if candidate is not None else None),
            "examples": self.ledger.examples(),
        }
        return snapshot

    def disagreement_fraction(self) -> float:
        """Current epoch's disagreeing-request fraction."""
        return self.ledger.disagreement_fraction()

    def report(self) -> dict:
        """This process's disagreement report (see module functions)."""
        return shadow_report_from_snapshot(self.stats())

    def __repr__(self) -> str:
        candidate = self._candidate
        return "ShadowService(%d primary suffixes, candidate=%s)" % (
            len(self.primary.index),
            len(candidate.index) if candidate is not None else "none")


# -- reports ----------------------------------------------------------------


def shadow_report_from_snapshot(snapshot: Mapping) -> dict:
    """Build the JSON disagreement report from one ``stats()`` snapshot.

    Works on any snapshot carrying the ``shadow_*`` instruments -- a
    live service's, a flushed worker file's, or a merged one -- so the
    in-process report and the server's merged one share this code.
    """
    counters = snapshot.get("counters") or {}
    labelled = snapshot.get("labelled") or {}
    meta = snapshot.get("shadow") or {}
    per_suffix: Dict[str, Dict[str, int]] = {}
    totals: Dict[str, int] = {}
    for cls in ALL_CLASSES:
        values = labelled.get(SHADOW_COUNTER_NAMES[cls]) or {}
        totals[cls] = sum(values.values())
        for suffix, count in values.items():
            row = per_suffix.setdefault(
                suffix, {name: 0 for name in ALL_CLASSES})
            row[cls] += count
    requests = int(counters.get("shadow_requests", 0))
    disagreements = sum(totals[cls] for cls in DIVERGENCE_CLASSES)
    return {
        "active": bool(meta.get("active", False)),
        "candidate_suffixes": meta.get("candidate_suffixes"),
        "requests": requests,
        "agree": totals[CLASS_AGREE],
        "primary_only": totals[CLASS_PRIMARY_ONLY],
        "candidate_only": totals[CLASS_CANDIDATE_ONLY],
        "conflict": totals[CLASS_CONFLICT],
        "disagreements": disagreements,
        "disagreement_fraction": (disagreements / requests
                                  if requests else 0.0),
        "per_suffix": {suffix: per_suffix[suffix]
                       for suffix in sorted(per_suffix)},
        "examples": meta.get("examples") or {
            cls: [] for cls in DIVERGENCE_CLASSES},
    }


def merge_shadow_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Fold per-worker ``stats()`` snapshots into one, ``shadow`` extra
    included.

    Counts merge through ``MetricsRegistry.merge_snapshot`` (the same
    primitive ``/metrics`` uses); the ``shadow`` extras -- which the
    registry merge ignores by design -- fold here: ``active`` is OR'd,
    the candidate size is taken from any active worker, and example
    lists concatenate up to :data:`EXAMPLE_CAP` per class.  The result
    is what the serving history persists per interval
    (``repro.obs.timeseries.HistoryStore``): a fleet-wide snapshot that
    still carries the ledger, so candidates compare across server
    lifetimes, not just within one.
    """
    registry = MetricsRegistry()
    examples: Dict[str, List[str]] = {
        cls: [] for cls in DIVERGENCE_CLASSES}
    active = False
    candidate_suffixes = None
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
        meta = snapshot.get("shadow") or {}
        if meta.get("active"):
            active = True
            if meta.get("candidate_suffixes") is not None:
                candidate_suffixes = meta["candidate_suffixes"]
        worker_examples = meta.get("examples") or {}
        for cls in DIVERGENCE_CLASSES:
            stored = examples[cls]
            for hostname in worker_examples.get(cls, []):
                if len(stored) >= EXAMPLE_CAP:
                    break
                stored.append(hostname)
    merged = registry.snapshot()
    merged["shadow"] = {"active": active,
                        "candidate_suffixes": candidate_suffixes,
                        "examples": examples}
    return merged


def merge_shadow_reports(snapshots: Iterable[Mapping]) -> dict:
    """One fleet-wide report from many per-worker ``stats()`` snapshots."""
    return shadow_report_from_snapshot(merge_shadow_snapshots(snapshots))


def render_shadow_report(report: Mapping, top: int = 10) -> str:
    """Human rendering of a disagreement report (``shadow-report``)."""
    lines = ["shadow disagreement report"]
    if not report.get("active"):
        lines[0] += " (no candidate loaded)"
    requests = report.get("requests", 0)
    lines.append(
        "  requests %d  agree %d  primary-only %d  candidate-only %d  "
        "conflict %d" % (requests, report.get("agree", 0),
                         report.get("primary_only", 0),
                         report.get("candidate_only", 0),
                         report.get("conflict", 0)))
    lines.append("  disagreement: %d (%.2f%%)"
                 % (report.get("disagreements", 0),
                    100.0 * report.get("disagreement_fraction", 0.0)))
    per_suffix = report.get("per_suffix") or {}
    disagreeing = sorted(
        ((suffix, row) for suffix, row in per_suffix.items()
         if any(row[cls] for cls in DIVERGENCE_CLASSES)),
        key=lambda pair: (-sum(pair[1][cls]
                               for cls in DIVERGENCE_CLASSES), pair[0]))
    if disagreeing:
        lines.append("  disagreeing suffixes:")
        for suffix, row in disagreeing[:top]:
            lines.append(
                "    %-28s agree %-6d p-only %-5d c-only %-5d "
                "conflict %d" % (suffix, row[CLASS_AGREE],
                                 row[CLASS_PRIMARY_ONLY],
                                 row[CLASS_CANDIDATE_ONLY],
                                 row[CLASS_CONFLICT]))
    examples = report.get("examples") or {}
    for cls in DIVERGENCE_CLASSES:
        sample = examples.get(cls) or []
        if sample:
            lines.append("  %s examples: %s" % (cls, ", ".join(sample)))
    return "\n".join(lines)
