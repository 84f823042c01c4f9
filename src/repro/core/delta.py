"""Delta planning: the one route by which suffixes reach the learner.

Per-suffix independence is the structural property the learner's
fan-out already exploits: each suffix's convention is a pure function
of (its training observations, the :class:`~repro.core.hoiho.HoihoConfig`).
This module turns that into deduplicated, incremental learning.  Every
suffix dataset is fingerprinted (:func:`repro.core.hoiho.suffix_fingerprint`);
identical training problems -- within one run, across the snapshots of
a timeline, and, with an artifact store, across runs -- learn once.
Consecutive snapshots are also diffed fingerprint-by-fingerprint into
:class:`DeltaSummary` reports.

Two layers use these plans:

* every learner call -- :class:`~repro.core.hoiho.Hoiho` (``run`` and
  ``run_datasets``) and
  :meth:`~repro.eval.context.ExperimentContext.learn_timeline` -- learns
  through :func:`learn_artifacts`: plan, dedupe identical suffix
  training sets, dispatch the unique ones in one fan-out, and assemble
  the results.  With a store attached, plans are first resolved
  against its ``suffixes/`` namespace and only the misses are learned
  and written back, so warm relearning cost is proportional to the
  delta, not the corpus;
* the bench/CI incremental sections report the
  :class:`DeltaSummary` numbers (changed/unchanged per consecutive
  snapshot pair) and the cache hit rates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.core.hoiho import (
    SITE_LEARN,
    HoihoConfig,
    SuffixArtifact,
    _learn_artifact_worker,
    suffix_fingerprinter,
)
from repro.core.parallel import ParallelConfig, parallel_map
from repro.core.resilience import RetryPolicy
from repro.core.types import SuffixDataset, TrainingItem, group_by_suffix
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.store import KIND_SUFFIX


@dataclass
class SuffixPlan:
    """One suffix's unit of incremental work.

    ``fingerprint`` is the content-addressed identity of the training
    problem: the hash of :func:`~repro.core.hoiho.suffix_cache_payload`
    (computed by :func:`~repro.core.hoiho.suffix_fingerprinter`), which
    keys the store.  The payload itself is not kept -- it copies
    every item -- and writing a learned artifact needs only the key.
    ``label`` names the training set the plan came from (empty for
    single-set :class:`~repro.core.hoiho.Hoiho` runs).
    """

    label: str
    suffix: str
    dataset: SuffixDataset
    fingerprint: str


def plan_datasets(datasets: Sequence[SuffixDataset],
                  config: HoihoConfig,
                  label: str = "") -> List[SuffixPlan]:
    """Fingerprint every dataset, in sorted-suffix order."""
    fingerprint = suffix_fingerprinter(config)
    return [SuffixPlan(label=label, suffix=dataset.suffix, dataset=dataset,
                       fingerprint=fingerprint(dataset))
            for dataset in sorted(datasets, key=lambda d: d.suffix)]


def plan_items(items: Iterable[TrainingItem], config: HoihoConfig,
               label: str = "", psl=None, tracer=NULL_TRACER,
               domains: Optional[Dict[str, Optional[str]]] = None,
               ) -> List[SuffixPlan]:
    """Group ``items`` by public suffix, in a ``learn.group`` span, and
    plan the resulting datasets.

    ``domains`` is the ``{hostname: registered domain}`` memo
    :func:`~repro.core.types.group_by_suffix` fills; sets planned
    together share one.  The span's ``hostnames`` counts the hostnames
    this set added to it, the ones looked up in the public suffix list.
    """
    if domains is None:
        domains = {}
    with tracer.span("learn.group") as group:
        known = len(domains)
        datasets = group_by_suffix(items, psl, domains=domains)
        group.set(items=sum(len(d) for d in datasets.values()),
                  suffixes=len(datasets), hostnames=len(domains) - known)
    return plan_datasets(list(datasets.values()), config, label=label)


@dataclass
class LabelPlan:
    """All suffix plans of one training set, sorted by suffix."""

    label: str
    suffixes: List[SuffixPlan]

    def fingerprints(self) -> Dict[str, str]:
        """{suffix: fingerprint} for delta diffing."""
        return {plan.suffix: plan.fingerprint for plan in self.suffixes}


@dataclass
class DeltaSummary:
    """What changed between two consecutive snapshots' suffixes.

    ``changed`` lists suffixes present in both whose training-set
    fingerprint moved; ``unchanged`` those whose fingerprint held
    (these are exactly the suffixes incremental learning never
    re-learns); ``added``/``removed`` the suffixes that appeared in or
    vanished from the later snapshot.
    """

    label: str
    previous: str
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    changed: List[str] = field(default_factory=list)
    unchanged: List[str] = field(default_factory=list)

    @property
    def relearn_fraction(self) -> float:
        """Fraction of the later snapshot's suffixes needing relearning."""
        total = len(self.added) + len(self.changed) + len(self.unchanged)
        return (len(self.added) + len(self.changed)) / total if total \
            else 0.0


def diff_fingerprints(previous: Mapping[str, str],
                      current: Mapping[str, str],
                      label: str = "", previous_label: str = "",
                      ) -> DeltaSummary:
    """Diff two {suffix: fingerprint} maps into a :class:`DeltaSummary`."""
    summary = DeltaSummary(label=label, previous=previous_label)
    for suffix in sorted(current):
        if suffix not in previous:
            summary.added.append(suffix)
        elif previous[suffix] != current[suffix]:
            summary.changed.append(suffix)
        else:
            summary.unchanged.append(suffix)
    summary.removed = sorted(set(previous) - set(current))
    return summary


@dataclass
class TimelinePlan:
    """Suffix plans for a sequence of training sets, plus their deltas.

    ``deltas`` holds one :class:`DeltaSummary` per consecutive pair of
    planned training sets, in timeline order.
    """

    labels: List[LabelPlan]
    deltas: List[DeltaSummary]

    def all_plans(self) -> List[SuffixPlan]:
        """Every suffix plan, label-major, suffix-sorted within."""
        return [plan for label_plan in self.labels
                for plan in label_plan.suffixes]

    def attrs(self) -> Dict[str, int]:
        """Scalar summary for span attributes / reports."""
        plans = self.all_plans()
        return {
            "suffix_plans": len(plans),
            "suffix_unique": len({plan.fingerprint for plan in plans}),
            "delta_added": sum(len(d.added) for d in self.deltas),
            "delta_removed": sum(len(d.removed) for d in self.deltas),
            "delta_changed": sum(len(d.changed) for d in self.deltas),
            "delta_unchanged": sum(len(d.unchanged)
                                   for d in self.deltas),
        }


def plan_timeline(training_sets: Sequence, config: HoihoConfig,
                  psl=None, tracer=NULL_TRACER) -> TimelinePlan:
    """Plan learning over a timeline of training sets.

    ``training_sets`` is any sequence of objects with ``label`` and
    ``items`` (e.g. :class:`~repro.eval.timeline.TrainingSet`), in
    timeline order.  Each set is grouped by :func:`plan_items`, as
    :meth:`~repro.core.hoiho.Hoiho.run` groups (same PSL, same
    drop-unregisterable rule, one ``learn.group`` span per set on
    ``tracer``), so assembling the resulting artifacts per label
    gives exactly a ``Hoiho.run`` of that label's items.  The sets
    share one hostname-to-domain memo, so a hostname held by many sets
    is looked up in the public suffix list once.
    """
    domains: Dict[str, Optional[str]] = {}
    label_plans = [
        LabelPlan(label=training_set.label,
                  suffixes=plan_items(training_set.items, config,
                                      label=training_set.label, psl=psl,
                                      tracer=tracer, domains=domains))
        for training_set in training_sets]
    deltas = [
        diff_fingerprints(label_plans[i - 1].fingerprints(),
                          label_plans[i].fingerprints(),
                          label=label_plans[i].label,
                          previous_label=label_plans[i - 1].label)
        for i in range(1, len(label_plans))
    ]
    return TimelinePlan(labels=label_plans, deltas=deltas)


def resolve_plans(store, plans: Sequence[SuffixPlan],
                  metrics=None,
                  ) -> Tuple[List[Tuple[SuffixPlan, SuffixArtifact]],
                             List[SuffixPlan]]:
    """Split plans into store hits and misses.

    A hit must actually be a :class:`~repro.core.hoiho.SuffixArtifact`
    -- anything else on disk under that fingerprint (corruption, stale
    schema) reads as a miss and is relearned.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) accumulates
    ``suffix_cache_hits``/``suffix_cache_misses`` counters.
    """
    hits: List[Tuple[SuffixPlan, SuffixArtifact]] = []
    misses: List[SuffixPlan] = []
    for plan in plans:
        artifact = store.get(KIND_SUFFIX, None, key=plan.fingerprint)
        if isinstance(artifact, SuffixArtifact):
            hits.append((plan, artifact))
        else:
            misses.append(plan)
    if metrics is not None:
        if hits:
            metrics.counter("suffix_cache_hits").inc(len(hits))
        if misses:
            metrics.counter("suffix_cache_misses").inc(len(misses))
    return hits, misses


def dedupe_plans(plans: Sequence[SuffixPlan]) -> List[List[SuffixPlan]]:
    """Group plans sharing a fingerprint (identical training problems).

    Content addressing makes the grouping sound: an identical
    fingerprint means identical suffix, items, and config, so one
    learned artifact serves every member.  Groups come back in first-
    seen order, which is deterministic because the input is.
    """
    groups: Dict[str, List[SuffixPlan]] = {}
    order: List[str] = []
    for plan in plans:
        if plan.fingerprint not in groups:
            groups[plan.fingerprint] = []
            order.append(plan.fingerprint)
        groups[plan.fingerprint].append(plan)
    return [groups[key] for key in order]


def assemble_result(label_plan: LabelPlan,
                    artifacts: Mapping[str, SuffixArtifact]):
    """Build one label's :class:`~repro.core.hoiho.HoihoResult` from
    per-suffix artifacts (keyed by fingerprint).

    Conventions land in sorted-suffix order -- the same insertion order
    a from-scratch :meth:`~repro.core.hoiho.Hoiho.run` produces -- and
    rejected suffixes (``convention is None``) still count toward
    ``suffixes_examined``.
    """
    from repro.core.hoiho import HoihoResult
    result = HoihoResult(suffixes_examined=len(label_plan.suffixes))
    for plan in label_plan.suffixes:
        artifact = artifacts[plan.fingerprint]
        if artifact.convention is not None:
            result.conventions[plan.suffix] = artifact.convention
    return result


def learn_artifacts(store, make_plan: Callable[[], TimelinePlan],
                    config: HoihoConfig, parallel: ParallelConfig,
                    retry: Optional[RetryPolicy],
                    tracer=NULL_TRACER, span=NULL_SPAN, metrics=None,
                    ) -> Tuple[TimelinePlan, Dict[str, SuffixArtifact]]:
    """Learn every planned suffix, each unique training problem once.

    ``make_plan`` (grouping included) and, when ``store`` is an
    :class:`~repro.store.ArtifactStore`, the lookups in its
    ``suffixes/`` namespace run under a ``learn.plan`` span.  The plans
    left to learn are deduped by fingerprint and the unique ones
    dispatched in ONE fan-out traced under ``span`` (so a pool spins up
    once for a whole timeline), then written back to the store as one
    pack (:meth:`~repro.store.ArtifactStore.put_many`).  With
    ``store=None`` nothing is looked up or written.  Returns the plan
    and every plan's artifact keyed by fingerprint; dispatch is in plan
    order, so parallel results are byte-identical to serial ones.
    """
    with tracer.span("learn.plan") as plan_span:
        plan = make_plan()
        hits: List[Tuple[SuffixPlan, SuffixArtifact]] = []
        misses = plan.all_plans()
        if store is not None:
            hits, misses = resolve_plans(store, misses, metrics=metrics)
            span.set(suffix_cache_hits=len(hits),
                     suffix_cache_misses=len(misses))
        plan_span.set(plans=len(hits) + len(misses))
    artifacts = {p.fingerprint: artifact for p, artifact in hits}
    groups = dedupe_plans(misses)
    learned = parallel_map(functools.partial(_learn_artifact_worker, config),
                           [group[0].dataset for group in groups],
                           parallel, retry=retry, site=SITE_LEARN, span=span)
    new = {group[0].fingerprint: artifact
           for group, artifact in zip(groups, learned)}
    artifacts.update(new)
    if store is not None:
        store.put_many(KIND_SUFFIX, new)
    return plan, artifacts
