"""Delta planning for incremental per-suffix relearning.

Per-suffix independence is the structural property the learner's
fan-out already exploits: each suffix's convention is a pure function
of (its training observations, the :class:`~repro.core.hoiho.HoihoConfig`).
This module turns that into *incremental* timeline learning.  Every
suffix dataset is fingerprinted (:func:`repro.core.hoiho.suffix_fingerprint`);
consecutive snapshots are diffed fingerprint-by-fingerprint; and only
suffixes whose training set actually changed are dispatched to the
learner -- the rest are served from the artifact store's ``suffixes/``
namespace.  Warm relearning cost becomes proportional to the delta,
not the corpus.

Three layers use these plans:

* :class:`~repro.core.hoiho.Hoiho` (``run_datasets`` with ``store=``)
  and :meth:`~repro.eval.context.ExperimentContext.learn_timeline`
  both learn through :func:`learn_artifacts`: plan, resolve against
  the store, dedupe identical suffix training sets (across snapshots
  too -- content addressing makes cross-snapshot sharing free, even on
  a cold store), dispatch only the unique misses, and write them back;
* the bench/CI incremental sections report the
  :class:`DeltaSummary` numbers (changed/unchanged per consecutive
  snapshot pair) and the cache hit rates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.hoiho import (
    SITE_LEARN,
    HoihoConfig,
    SuffixArtifact,
    _learn_artifact_worker,
    suffix_cache_payload,
)
from repro.core.parallel import ParallelConfig, parallel_map
from repro.core.resilience import RetryPolicy
from repro.core.types import SuffixDataset, group_by_suffix
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.store import KIND_SUFFIX, fingerprint


@dataclass
class SuffixPlan:
    """One suffix's unit of incremental work.

    ``fingerprint`` is the content-addressed identity of the training
    problem; ``payload`` is what it hashes (and what keys the store).
    ``label`` names the training set the plan came from (empty for
    single-set :class:`~repro.core.hoiho.Hoiho` runs).
    """

    label: str
    suffix: str
    dataset: SuffixDataset
    payload: Dict[str, object]
    fingerprint: str


def plan_datasets(datasets: Sequence[SuffixDataset],
                  config: HoihoConfig,
                  label: str = "") -> List[SuffixPlan]:
    """Fingerprint every dataset, in sorted-suffix order."""
    plans: List[SuffixPlan] = []
    for dataset in sorted(datasets, key=lambda d: d.suffix):
        payload = suffix_cache_payload(dataset, config)
        plans.append(SuffixPlan(label=label, suffix=dataset.suffix,
                                dataset=dataset, payload=payload,
                                fingerprint=fingerprint(payload)))
    return plans


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
                  psl=None) -> TimelinePlan:
    """Plan incremental learning over a timeline of training sets.

    ``training_sets`` is any sequence of objects with ``label`` and
    ``items`` (e.g. :class:`~repro.eval.timeline.TrainingSet`), in
    timeline order.  Grouping matches
    :meth:`~repro.core.hoiho.Hoiho.run` exactly (same PSL, same
    drop-unregisterable rule), so an incremental assembly of the
    resulting artifacts is indistinguishable from a from-scratch
    ``Hoiho.run`` per label.
    """
    label_plans: List[LabelPlan] = []
    for training_set in training_sets:
        datasets = group_by_suffix(training_set.items, psl)
        label_plans.append(LabelPlan(
            label=training_set.label,
            suffixes=plan_datasets(list(datasets.values()), config,
                                   label=training_set.label)))
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
        artifact = store.get(KIND_SUFFIX, plan.payload, key=plan.fingerprint)
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
    """Learn every planned suffix through the store's ``suffixes/`` cache.

    ``make_plan`` and the store lookups run under a ``learn.plan`` span.
    Misses are deduped by fingerprint and the unique ones dispatched in
    ONE fan-out traced under ``span`` (so a pool spins up once for a
    whole timeline), then written back.  Returns the plan and every
    plan's artifact keyed by fingerprint; dispatch is in plan order, so
    parallel results are byte-identical to serial ones.
    """
    with tracer.span("learn.plan") as plan_span:
        plan = make_plan()
        hits, misses = resolve_plans(store, plan.all_plans(),
                                     metrics=metrics)
        plan_span.set(plans=len(hits) + len(misses))
    span.set(suffix_cache_hits=len(hits), suffix_cache_misses=len(misses))
    artifacts = {p.fingerprint: artifact for p, artifact in hits}
    groups = dedupe_plans(misses)
    learned = parallel_map(functools.partial(_learn_artifact_worker, config),
                           [group[0].dataset for group in groups],
                           parallel, retry=retry, site=SITE_LEARN, span=span)
    for group, artifact in zip(groups, learned):
        store.put(KIND_SUFFIX, group[0].payload, artifact,
                  key=group[0].fingerprint)
        artifacts[group[0].fingerprint] = artifact
    return plan, artifacts
