"""Shared, lazily-computed state for the experiment harness.

Experiments share one synthetic world, its routing model, the 19-set
timeline, and the learned conventions per training set.  Everything is
memoised, so running several experiments on one context (as
``repro-hoiho all`` and the paper-shape tests do) pays each cost once.
"""

from __future__ import annotations

import enum
import functools
from typing import Dict, List, Optional

from repro.core.delta import assemble_result, learn_artifacts, \
    plan_timeline
from repro.core.hoiho import HoihoConfig, HoihoResult
from repro.core.parallel import ParallelConfig
from repro.core.resilience import RetryPolicy
from repro.eval.timeline import TrainingSet, build_timeline
from repro.naming.assigner import NamingPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.store import ArtifactStore, KIND_HOIHO, KIND_TIMELINE, KIND_WORLD
from repro.topology.world import World, WorldConfig, generate_world
from repro.traceroute.routing import RoutingModel


class Scale(enum.Enum):
    """How big an experiment run should be."""

    TINY = "tiny"        # unit-test sized
    SMALL = "small"      # seconds; default for the paper-shape tests
    FULL = "full"        # the full-size world

    def world_config(self) -> WorldConfig:
        if self is Scale.TINY:
            return WorldConfig.tiny()
        if self is Scale.SMALL:
            return WorldConfig.small()
        return WorldConfig.default()


class ExperimentContext:
    """Memoised world + timeline + learned conventions.

    Learning goes through the delta planner (see
    :mod:`repro.core.delta`), with or without a store: every suffix's
    training set is content-fingerprinted and each unique training
    problem learned once, however many snapshots share it.
    :meth:`learned` is :meth:`learn_timeline` over one label.

    ``parallel`` fans independent work out over worker processes:
    :meth:`timeline` builds one snapshot per task and
    :meth:`learn_timeline` learns one unique suffix per task.  Parallel
    results are bit-identical to serial ones.  ``retry`` arms the
    resilient dispatcher on every one of those fan-outs (worker loss
    and transient faults are absorbed; permanent failures still raise).

    ``store`` plugs in a persistent
    :class:`~repro.store.ArtifactStore`: generated worlds, built
    timelines, and learned conventions round-trip through it keyed by a
    fingerprint of the full configuration, so a warm store skips
    regeneration entirely and any config change invalidates by
    construction (the fingerprint moves).  A stored timeline loads
    only its items: each snapshot body is unpickled when first read
    (see :class:`~repro.eval.timeline.TrainingSet`), so a relearn never
    pays for traces or ITDKs.  Learned suffixes persist
    too, so reuse extends across runs: a later snapshot relearns only
    the suffixes whose observations changed.  The whole-result hoiho
    cache stays layered on top as the fast path.
    """

    def __init__(self, seed: int = 2020,
                 scale: Scale = Scale.SMALL,
                 hoiho_config: Optional[HoihoConfig] = None,
                 itdk_labels: Optional[List[str]] = None,
                 include_pdb: bool = True,
                 parallel: Optional[ParallelConfig] = None,
                 store: Optional[ArtifactStore] = None,
                 retry: Optional[RetryPolicy] = None,
                 tracer=NULL_TRACER,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.seed = seed
        self.scale = scale
        self.hoiho_config = hoiho_config or HoihoConfig()
        self.itdk_labels = itdk_labels
        self.include_pdb = include_pdb
        self.parallel = parallel or ParallelConfig.serial()
        self.store = store
        self.retry = retry
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if store is not None:
            # The store observes through the context's tracer/registry
            # (store.get/store.put spans, store_* counters).
            store.tracer = tracer
            store.metrics = self.metrics
        self._world: Optional[World] = None
        self._routing: Optional[RoutingModel] = None
        self._naming_plan: Optional[NamingPlan] = None
        self._timeline: Optional[List[TrainingSet]] = None
        self._learned: Dict[str, HoihoResult] = {}

    # -- store fingerprints -------------------------------------------------

    def _world_payload(self) -> Dict[str, object]:
        return {"kind": "world", "seed": self.seed,
                "config": self.scale.world_config()}

    def _timeline_payload(self) -> Dict[str, object]:
        payload = self._world_payload()
        payload.update({"kind": "timeline",
                        "itdk_labels": self.itdk_labels,
                        "include_pdb": self.include_pdb})
        return payload

    def _hoiho_payload(self, label: str) -> Dict[str, object]:
        payload = self._timeline_payload()
        payload.update({"kind": "hoiho", "label": label,
                        "hoiho_config": self.hoiho_config})
        return payload

    @property
    def world(self) -> World:
        """The shared synthetic world."""
        if self._world is None:
            with self.tracer.span("stage.world", scale=self.scale.value,
                                  seed=self.seed) as span:
                if self.store is not None:
                    cached = self.store.get(KIND_WORLD,
                                            self._world_payload())
                    if cached is not None:
                        span.set(cached=True)
                        self._world = cached
                        return self._world
                self._world = generate_world(self.seed,
                                             self.scale.world_config())
                if self.store is not None:
                    self.store.put(KIND_WORLD, self._world_payload(),
                                   self._world)
        return self._world

    @property
    def routing(self) -> RoutingModel:
        """The shared AS-level routing model (lazily solved per dst)."""
        if self._routing is None:
            self._routing = RoutingModel(self.world.graph)
        return self._routing

    @property
    def naming_plan(self) -> NamingPlan:
        """The shared naming plan every snapshot of the world names its
        interfaces from (built on first use, in a ``naming.plan``
        span)."""
        if self._naming_plan is None:
            self._naming_plan = NamingPlan(self.world, self.tracer)
        return self._naming_plan

    @property
    def timeline(self) -> List[TrainingSet]:
        """All training sets (17 ITDK + 2 PeeringDB by default)."""
        if self._timeline is None:
            world = self.world  # materialise outside the timeline stage
            with self.tracer.span("stage.timeline") as span:
                if self.store is not None:
                    cached = self.store.get(KIND_TIMELINE,
                                            self._timeline_payload())
                    if cached is not None:
                        span.set(cached=True)
                        # A plan costs a build, which a relearn never
                        # reads: the sets get the context's plan from a
                        # provider, built only on a first re-derivation.
                        for training_set in cached:
                            training_set.adopt(world, self.tracer,
                                               self.routing,
                                               lambda: self.naming_plan)
                        self._timeline = cached
                        return self._timeline
                self._timeline = build_timeline(
                    world, self.seed, self.routing,
                    itdk_labels=self.itdk_labels,
                    include_pdb=self.include_pdb,
                    parallel=self.parallel,
                    retry=self.retry,
                    tracer=self.tracer,
                    naming_plan=self.naming_plan)
                span.set(sets=len(self._timeline))
                if self.store is not None:
                    self.store.put(KIND_TIMELINE, self._timeline_payload(),
                                   self._timeline)
        return self._timeline

    def training_set(self, label: str) -> TrainingSet:
        """One training set by label (KeyError when absent)."""
        for training_set in self.timeline:
            if training_set.label == label:
                return training_set
        raise KeyError(label)

    def learned(self, label: str) -> HoihoResult:
        """Learned conventions for one training set (memoised)."""
        return self.learn_timeline([label])[label]

    def learn_timeline(self,
                       labels: Optional[List[str]] = None,
                       ) -> Dict[str, HoihoResult]:
        """Learn every (or the named) training sets (memoised).

        Labels already learned in this context are served from the
        memo, and, with a store, whole results from its hoiho cache --
        without building the timeline.  The rest learn together in one
        :meth:`_learn_missing` fan-out.  The ``stage.learn`` span's
        ``cached`` attribute counts the store's whole-result hits.
        """
        if labels is None:
            labels = [t.label for t in self.timeline]
        missing = [label for label in labels if label not in self._learned]
        if not missing:
            return {label: self._learned[label] for label in labels}
        with self.tracer.span("stage.learn", sets=len(missing)) as span:
            if self.store is not None:
                still_missing = []
                for label in missing:
                    cached = self.store.get(KIND_HOIHO,
                                            self._hoiho_payload(label))
                    if cached is not None:
                        self._learned[label] = cached
                    else:
                        still_missing.append(label)
                span.set(cached=len(missing) - len(still_missing))
                missing = still_missing
            if missing:
                self._learn_missing(missing, span)
        return {label: self._learned[label] for label in labels}

    def _learn_missing(self, missing: List[str], span) -> None:
        """Learn ``missing`` training sets through the delta planner.

        Plans every set's suffixes under ``learn.plan`` (one
        ``learn.group`` per set) and learns them through
        :func:`~repro.core.delta.learn_artifacts` in one fan-out under
        ``span``: a suffix whose training set is identical across
        snapshots, or already in the store, learns at most once.
        Results are assembled per label in sorted-suffix order, so they
        are byte-identical to a ``Hoiho.run`` per label, and written to
        the store's hoiho cache when one is attached.
        """
        sets = [self.training_set(label) for label in missing]
        plan, artifacts = learn_artifacts(
            self.store, functools.partial(plan_timeline, sets,
                                          self.hoiho_config,
                                          tracer=self.tracer),
            self.hoiho_config, self.parallel, self.retry,
            tracer=self.tracer, span=span, metrics=self.metrics)
        span.set(**plan.attrs())
        for label_plan in plan.labels:
            result = assemble_result(label_plan, artifacts)
            self._learned[label_plan.label] = result
            if self.store is not None:
                self.store.put(KIND_HOIHO,
                               self._hoiho_payload(label_plan.label), result)

    def run_fingerprint(self) -> str:
        """One fingerprint covering everything a run depends on.

        The union of the timeline payload and the learner config -- the
        same inputs whose pieces key the artifact store -- so two runs
        with identical manifest fingerprints produced identical
        artifacts.
        """
        from repro.store import fingerprint
        payload = self._timeline_payload()
        payload.update({"kind": "run", "hoiho_config": self.hoiho_config})
        return fingerprint(payload)

    def manifest(self, wall_seconds: float,
                 trace_path: Optional[str] = None) -> Dict[str, object]:
        """The run manifest document (see :mod:`repro.obs.manifest`).

        Call after the run's stages completed; per-stage durations are
        aggregated from the tracer's top-level spans and the metrics
        snapshot captures the registry at this moment.
        """
        from repro.obs.manifest import build_manifest
        return build_manifest(
            fingerprint=self.run_fingerprint(), seed=self.seed,
            scale=self.scale.value, records=self.tracer.export(),
            wall_seconds=wall_seconds,
            metrics=self.metrics.snapshot(), trace_path=trace_path)

    def latest_itdk(self) -> TrainingSet:
        """The most recent ITDK training set in this context."""
        itdk = [t for t in self.timeline if t.kind == "itdk"]
        if not itdk:
            raise RuntimeError("no ITDK sets in this context")
        return itdk[-1]

    def latest_pdb(self) -> TrainingSet:
        """The most recent PeeringDB training set."""
        pdb = [t for t in self.timeline if t.kind == "peeringdb"]
        if not pdb:
            raise RuntimeError("no PeeringDB sets in this context")
        return pdb[-1]
