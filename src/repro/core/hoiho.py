"""The end-to-end Hoiho-ASN learner.

:func:`learn_suffix` runs the four phases over one suffix dataset and
returns the selected convention; :class:`Hoiho` runs over a whole
training set (any iterable of :class:`~repro.core.types.TrainingItem`),
grouping by public suffix first.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.evaluate import NCScore, evaluate_regex
from repro.core.matchcache import CacheStats, MatchCache
from repro.core.parallel import ParallelConfig
from repro.core.resilience import RetryPolicy
from repro.obs.trace import NULL_TRACER
from repro.core.phase1 import generate_base_regexes
from repro.core.phase2 import merge_regexes
from repro.core.phase3 import specialise_regex
from repro.core.phase4 import build_regex_sets
from repro.core.regex_model import Regex
from repro.core.select import (  # HoihoResult also for old pickles
    HoihoResult,
    LearnedConvention,
    classify_nc,
    select_best,
)
from repro.core.types import SuffixDataset, TrainingItem
from repro.psl import PublicSuffixList, default_psl
from repro.util.ipaddr import embedded_ip_spans

logger = logging.getLogger(__name__)

#: Fault-injection site label for the learning fan-out of
#: :func:`repro.core.delta.learn_artifacts`: one item per unique suffix
#: training problem (fingerprint) left to learn, in plan order --
#: sorted-suffix order within each training set.
SITE_LEARN = "learn"


@dataclass
class HoihoConfig:
    """Learner knobs.

    The defaults mirror the paper's behaviour; the phase switches exist
    for the ablation benchmarks.
    """

    min_hostnames: int = 4          # smallest suffix worth learning
    min_apparent: int = 2           # hostnames with apparent ASNs required
    min_distinct_asns: int = 2      # figure-2 rule: >=2 distinct extractions
    min_tp: int = 3                 # minimum congruent extractions
    max_candidates: int = 800       # phase-1 pool cap
    generation_sample: int = 80     # items seeding phase-1 generation
    eval_pool: int = 120            # candidates kept (by ATP) after phase 1
    set_pool: int = 25              # phase-4 ranking window
    n_seeds: int = 6                # phase-4 seed count
    enable_merge: bool = True       # phase 2
    enable_classes: bool = True     # phase 3
    enable_sets: bool = True        # phase 4
    enable_cache: bool = True       # match-vector evaluation cache


def _config_payload(config: HoihoConfig) -> Dict[str, object]:
    """Every :class:`HoihoConfig` field by name."""
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)}


def suffix_cache_payload(dataset: SuffixDataset,
                         config: HoihoConfig) -> Dict[str, object]:
    """The fingerprint payload keying one suffix's learned artifact.

    Everything the learned convention is a function of: the suffix, its
    full (normalised, deduplicated, sorted) training observations, and
    every :class:`HoihoConfig` field.  The config participates whole --
    even ``enable_cache``, which cannot change *which* convention is
    selected but does change whether per-item outcomes ride along on
    the winning score -- so a cached artifact is exactly what a fresh
    learn under the same config would have produced, field for field.

    Its :func:`~repro.store.fingerprint` is the suffix's fingerprint;
    :func:`suffix_fingerprinter` computes the same digest without
    building this payload.
    """
    return {
        "kind": "suffix",
        "suffix": dataset.suffix,
        "items": [(item.hostname, item.train_asn, item.address)
                  for item in dataset.items],
        "hoiho_config": _config_payload(config),
    }


def suffix_fingerprinter(config: HoihoConfig,
                         ) -> Callable[[SuffixDataset], str]:
    """The fingerprint function of suffix datasets learned under
    ``config``: ``fingerprint(suffix_cache_payload(dataset, config))``.

    The config is made canonical once, here; each dataset's items go
    to the JSON encoder as ``(hostname, train_asn, address)`` tuples,
    which are canonical already (a str, an int and a str or ``None``),
    so no item is walked by :func:`~repro.store.canonical`.
    """
    from repro.store import canonical, fingerprint_fields
    hoiho_config = canonical(_config_payload(config))

    def suffix_fingerprint(dataset: SuffixDataset) -> str:
        return fingerprint_fields({
            "kind": "suffix",
            "suffix": dataset.suffix,
            "items": [(item.hostname, item.train_asn, item.address)
                      for item in dataset.items],
            "hoiho_config": hoiho_config,
        })

    return suffix_fingerprint


def suffix_fingerprint(dataset: SuffixDataset,
                       config: HoihoConfig) -> str:
    """Content-addressed identity of one suffix's training problem.

    Two snapshots whose training data for a suffix is identical (and
    learned under the same config) share this fingerprint -- the
    property the incremental timeline learner exploits to relearn only
    changed suffixes.  To fingerprint many datasets under one config,
    call :func:`suffix_fingerprinter` once.
    """
    return suffix_fingerprinter(config)(dataset)


@dataclass
class SuffixArtifact:
    """What the per-suffix cache stores for one (training set, config).

    A *negative* outcome (no convention learned) is cached too --
    ``convention`` is ``None`` and ``rejected_reason`` says why -- so a
    suffix that was examined and rejected is never re-examined until
    its training data changes.  ``phases`` and ``cache_stats`` carry
    the per-phase bookkeeping (candidate counts, match-cache counters)
    so cache hits can still report how the convention came to be.
    """

    suffix: str
    convention: Optional[LearnedConvention]
    rejected_reason: Optional[str] = None
    phases: Dict[str, int] = field(default_factory=dict)
    cache_stats: Dict[str, object] = field(default_factory=dict)


def _suffix_artifact(dataset: SuffixDataset,
                     convention: Optional[LearnedConvention],
                     record: LearnTrace) -> SuffixArtifact:
    """Condense a traced learn into its cacheable artifact."""
    phases = {
        "phase1_generated": record.phase1_generated,
        "phase1_scored": len(record.phase1_scored),
        "phase2_added": len(record.phase2_added),
        "phase3_added": len(record.phase3_added),
        "conventions": len(record.conventions),
    }
    stats = record.cache_stats.as_dict() if record.cache_stats else {}
    return SuffixArtifact(suffix=dataset.suffix, convention=convention,
                          rejected_reason=record.rejected_reason,
                          phases=phases, cache_stats=stats)


@dataclass
class LearnTrace:
    """How a convention came to be: per-phase bookkeeping.

    Produced by :func:`learn_suffix_traced`; lets callers render a
    figure-4 style walkthrough (base regexes, merges, class embeddings,
    set building, and the selection outcome).
    """

    suffix: str = ""
    phase1_generated: int = 0
    phase1_scored: List[Tuple[Regex, NCScore]] = field(
        default_factory=list)
    phase2_added: List[Tuple[Regex, NCScore]] = field(
        default_factory=list)
    phase3_added: List[Tuple[Regex, NCScore]] = field(
        default_factory=list)
    conventions: List[Tuple[Tuple[Regex, ...], NCScore]] = field(
        default_factory=list)
    rejected_reason: Optional[str] = None
    cache_stats: Optional[CacheStats] = None

    def best_phase1(self, n: int = 5) -> List[Tuple[Regex, NCScore]]:
        """Top-n base regexes by rank."""
        return sorted(self.phase1_scored,
                      key=lambda pair: pair[1].rank_key())[:n]


def _has_enough_apparent(dataset: SuffixDataset, config: HoihoConfig) -> bool:
    """Cheap pre-check: does the suffix contain enough apparent ASNs?

    Suffixes that embed AS names, geography, or nothing fail here without
    paying for regex generation -- the bulk of real suffixes.
    """
    count = 0
    distinct = set()
    for index, item in enumerate(dataset.items):
        if dataset.apparent_runs(index):
            count += 1
            distinct.add(item.train_asn)
            # Both counters only grow, so the predicate is checked once,
            # here; if the loop finishes without tripping it, it cannot
            # hold.
            if count >= config.min_apparent and len(distinct) >= 2:
                return True
    return False


def learn_suffix(dataset: SuffixDataset,
                 config: Optional[HoihoConfig] = None,
                 tracer=NULL_TRACER) -> Optional[LearnedConvention]:
    """Learn a naming convention for one suffix, or None.

    Runs phase 1 (base regexes), phase 2 (merging), phase 3 (character
    classes) and phase 4 (regex sets), then applies the section-3.6
    selection rule and the section-4 usability gates.
    """
    return learn_suffix_traced(dataset, config, tracer=tracer)[0]


def learn_suffix_traced(dataset: SuffixDataset,
                        config: Optional[HoihoConfig] = None,
                        tracer=NULL_TRACER,
                        ) -> Tuple[Optional[LearnedConvention], LearnTrace]:
    """Like :func:`learn_suffix`, also returning the :class:`LearnTrace`
    of every phase (figure-4 style walkthrough).

    ``tracer`` additionally wraps the whole call in a ``learn.suffix``
    span with one child span per phase; the span carries the candidate
    count, regexes kept, and the MatchCache hit-rate (the numbers
    ``trace summary`` aggregates), and ``features.computed``: the
    hostnames this suffix featurised rather than found in the
    process-wide memo (misses of
    :func:`~repro.util.ipaddr.embedded_ip_spans`, counted in the
    process that learns the suffix).  :data:`LearnTrace` and the span
    are independent: one is the figure-4 walkthrough, the other the
    timing record.
    """
    config = config or HoihoConfig()
    with tracer.span("learn.suffix", suffix=dataset.suffix,
                     items=len(dataset)) as span:
        misses = embedded_ip_spans.cache_info().misses
        convention, record = _learn_suffix_phases(dataset, config, tracer,
                                                  span)
        span.set(kept=len(convention.regexes)
                 if convention is not None else 0)
        span.set(**{"features.computed":
                    embedded_ip_spans.cache_info().misses - misses})
        if record.rejected_reason:
            span.set(rejected=record.rejected_reason)
    return convention, record


def _learn_suffix_phases(dataset: SuffixDataset, config: HoihoConfig,
                         tracer, span,
                         ) -> Tuple[Optional[LearnedConvention], LearnTrace]:
    """The phase 1-4 + select body of :func:`learn_suffix_traced`.

    Split out so the ``learn.suffix`` span brackets everything --
    including the cheap pre-check rejections that exit before phase 1.
    """
    record = LearnTrace(suffix=dataset.suffix)
    cache = MatchCache(dataset) if config.enable_cache else None
    if cache is not None:
        record.cache_stats = cache.stats

    def reject(reason: str):
        record.rejected_reason = reason
        return None, record

    try:
        return _run_phases(dataset, config, tracer, span, record, cache,
                           reject)
    finally:
        if cache is not None:
            span.set(match_calls=cache.stats.match_calls,
                     vector_hits=cache.stats.vector_hits,
                     hit_rate=cache.stats.hit_rate)


def _run_phases(dataset: SuffixDataset, config: HoihoConfig, tracer,
                span, record: LearnTrace,
                cache: Optional[MatchCache], reject,
                ) -> Tuple[Optional[LearnedConvention], LearnTrace]:
    if len(dataset) < config.min_hostnames:
        return reject("too few hostnames")
    if dataset.distinct_train_asns < config.min_distinct_asns:
        return reject("single training ASN")
    if not _has_enough_apparent(dataset, config):
        return reject("not enough apparent ASNs")

    with tracer.span("learn.phase1"):
        candidates = generate_base_regexes(
            dataset, max_candidates=config.max_candidates,
            sample=config.generation_sample)
        record.phase1_generated = len(candidates)
        span.set(candidates=len(candidates))
        if not candidates:
            return reject("no base regexes")

        scored: Dict[Regex, NCScore] = {}
        for regex in candidates:
            score = evaluate_regex(regex, dataset, cache=cache)
            if score.tp > 0:
                scored[regex] = score
        record.phase1_scored = list(scored.items())
    if not scored:
        return reject("no base regex extracts a congruent ASN")

    # Trim to the strongest candidates before the quadratic phases.
    ranked = sorted(scored, key=lambda r: scored[r].rank_key()
                    + (r.specificity_cost(), r.pattern))
    scored = {regex: scored[regex] for regex in ranked[:config.eval_pool]}

    if config.enable_merge:
        with tracer.span("learn.phase2"):
            for regex in merge_regexes(list(scored)):
                score = evaluate_regex(regex, dataset, cache=cache)
                if score.tp > 0:
                    scored[regex] = score
                    record.phase2_added.append((regex, score))

    if config.enable_classes:
        with tracer.span("learn.phase3"):
            for regex in list(scored):
                specialised = specialise_regex(regex, dataset, cache=cache)
                if specialised is None or specialised in scored:
                    continue
                score = evaluate_regex(specialised, dataset, cache=cache)
                if score.atp >= scored[regex].atp:
                    scored[specialised] = score
                    record.phase3_added.append((specialised, score))

    with tracer.span("learn.phase4"):
        if config.enable_sets:
            conventions = build_regex_sets(scored, dataset,
                                           pool_size=config.set_pool,
                                           n_seeds=config.n_seeds,
                                           cache=cache)
        else:
            ranked = sorted(scored,
                            key=lambda r: scored[r].rank_key()
                            + (r.specificity_cost(), r.pattern))
            conventions = [((regex,), scored[regex])
                           for regex in ranked[:config.set_pool]]
        record.conventions = conventions[:10]

    with tracer.span("learn.select"):
        selection = select_best(conventions, cache=cache)
    if selection is None:
        return reject("no convention selected")
    regexes, score = selection
    if score.distinct < config.min_distinct_asns or score.tp < config.min_tp:
        return reject("below usability gates "
                      "(distinct=%d tp=%d)" % (score.distinct, score.tp))
    convention = LearnedConvention(suffix=dataset.suffix, regexes=regexes,
                                   score=score,
                                   nc_class=classify_nc(score))
    return convention, record


def _learn_artifact_worker(config: HoihoConfig, dataset: SuffixDataset,
                           tracer=NULL_TRACER) -> SuffixArtifact:
    """Learn one suffix and return its cacheable artifact, which carries
    the rejection reason and per-phase counters alongside the
    convention."""
    convention, record = learn_suffix_traced(dataset, config, tracer=tracer)
    return _suffix_artifact(dataset, convention, record)


class Hoiho:
    """Convenience driver over an arbitrary training set.

    Learning goes through the delta planner
    (:func:`repro.core.delta.learn_artifacts`), the one route every
    learner call takes: each suffix's training set + config is
    fingerprinted (:func:`suffix_fingerprint`) under a ``learn.plan``
    span, then learned.  ``parallel`` fans the per-suffix learning out
    over worker processes; the merged result is bit-identical to a
    serial run because datasets are dispatched and merged in
    sorted-suffix order.  ``retry`` arms the resilient dispatcher
    (worker loss and transient faults are retried; a suffix that fails
    permanently still raises).

    ``store`` plugs in a persistent
    :class:`~repro.store.ArtifactStore` and turns the run incremental:
    each fingerprint is looked up in the store's ``suffixes/``
    namespace before any learning happens; hits skip phases 1-4
    entirely (negative results included), misses are learned and their
    artifacts written back.  Results are byte-identical to a storeless
    run.

    >>> hoiho = Hoiho()
    >>> items = [TrainingItem("as%d.lon%d.example.com" % (a, i % 3), a)
    ...          for i, a in enumerate([3356, 1299, 174, 2914, 6453])]
    >>> result = hoiho.run(items)
    >>> result.conventions["example.com"].patterns()
    ['^as(\\\\d+)\\\\.lon\\\\d+\\\\.example\\\\.com$']
    """

    def __init__(self, config: Optional[HoihoConfig] = None,
                 psl: Optional[PublicSuffixList] = None,
                 parallel: Optional[ParallelConfig] = None,
                 retry: Optional[RetryPolicy] = None,
                 tracer=NULL_TRACER,
                 store=None,
                 metrics=None) -> None:
        self.config = config or HoihoConfig()
        self.psl = psl or default_psl()
        self.parallel = parallel or ParallelConfig.serial()
        self.retry = retry
        self.tracer = tracer
        self.store = store
        self.metrics = metrics

    def run(self, items: Iterable[TrainingItem]) -> HoihoResult:
        """Group items by suffix and learn a convention per suffix."""
        from repro.core.delta import plan_items
        return self._learn(lambda: plan_items(items, self.config,
                                              psl=self.psl,
                                              tracer=self.tracer))

    def run_datasets(self,
                     datasets: Iterable[SuffixDataset]) -> HoihoResult:
        """Learn over pre-grouped datasets."""
        from repro.core.delta import plan_datasets
        return self._learn(lambda: plan_datasets(list(datasets),
                                                 self.config))

    def _learn(self, make_plans: Callable[[], list]) -> HoihoResult:
        """Learn the suffix plans ``make_plans`` builds, under a
        ``learn.run`` span.

        Workers' span trees are adopted under that span and retries
        surface there as span events (see :mod:`repro.core.parallel`).
        """
        from repro.core.delta import (
            LabelPlan,
            TimelinePlan,
            assemble_result,
            learn_artifacts,
        )
        with self.tracer.span("learn.run") as span:
            plan, artifacts = learn_artifacts(
                self.store,
                lambda: TimelinePlan([LabelPlan("", make_plans())], []),
                self.config, self.parallel, self.retry,
                tracer=self.tracer, span=span, metrics=self.metrics)
            result = assemble_result(plan.labels[0], artifacts)
            span.set(suffixes=result.suffixes_examined,
                     learned=len(result.conventions))
        logger.info("examined %d suffixes, learned %d conventions",
                    result.suffixes_examined, len(result.conventions))
        return result
