"""End-to-end pipeline: synthetic world to Hoiho training data.

This module chains the substrates exactly the way CAIDA's production
pipeline chains the real systems: assign hostnames to a world, run a
traceroute campaign, build an ITDK snapshot, annotate routers with
RouterToAsAssignment or bdrmapIT, and emit (hostname, training ASN)
items for the learner.  PeeringDB training sets come straight from the
synthetic netixlan records.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.bdrmapit.algorithm import AnnotationConfig, annotate
from repro.bdrmapit.graph import RouterGraph, build_router_graph
from repro.core.types import TrainingItem
from repro.itdk.builder import BuildConfig, BuiltSnapshot, \
    build_snapshot, name_hosts
from repro.itdk.snapshot import ITDKSnapshot
from repro.naming.assigner import NamingConfig, NamingOutcome, NamingPlan
from repro.obs.trace import NULL_TRACER
from repro.peeringdb.builder import PeeringDBConfig, build_peeringdb
from repro.peeringdb.snapshot import PeeringDBSnapshot
from repro.rtaa.rtaa import assign_asns as rtaa_assign
from repro.topology.world import World
from repro.traceroute.campaign import CampaignConfig, run_campaign
from repro.traceroute.probe import TraceSet
from repro.traceroute.routing import RoutingModel
from repro.util.ipaddr import int_to_ip

METHOD_RTAA = "rtaa"
METHOD_BDRMAPIT = "bdrmapit"


@dataclass
class SnapshotSpec:
    """One training-set snapshot: a point on the paper's 2010-2020 axis."""

    label: str                       # e.g. "2020-01"
    year: float = 2020.0
    method: str = METHOD_BDRMAPIT    # rtaa | bdrmapit
    n_vps: int = 20
    seed: int = 0                    # snapshot-specific randomness
    naming: Optional[NamingConfig] = None
    build: Optional[BuildConfig] = None

    def naming_config(self) -> NamingConfig:
        """Naming config with the snapshot year filled in."""
        if self.naming is not None:
            return self.naming
        return NamingConfig(year=self.year)

    def build_config(self) -> BuildConfig:
        """ITDK build config with the VP count filled in."""
        if self.build is not None:
            return self.build
        return BuildConfig(campaign=CampaignConfig(n_vps=self.n_vps))


#: Annotation methods that read hop sequences.  Only their campaigns
#: walk with columns; the others walk observed only.  No result
#: pickles its columns (see :class:`SnapshotResult`).
TRACE_METHODS = frozenset((METHOD_BDRMAPIT,))


@dataclass
class SnapshotResult:
    """Everything produced for one snapshot.

    A result pickles what a published ITDK holds: the snapshot (nodes,
    aliases, hostnames), its annotations and the training items.  The
    two inputs the build derived them from, the campaign's ``traces``
    and the naming outcome ``naming``, do not pickle and are derived
    again on first read:

    * ``traces`` replays the campaign, from the spec's seed and
      campaign config, under a ``snapshot.replay`` span.  A bdrmapIT
      build walks with columns and keeps them in memory; an RTAA build
      walks observed only (RTAA reads the alias resolution and the
      route table, not hop sequences), so an RTAA result replays its
      traces even in the process that built it.
    * ``naming`` is :func:`snapshot_naming` again, from the world's
      naming plan and the ITDK's addresses, under a
      ``snapshot.renaming`` span.

    ``graph`` is derived on first use from the alias resolution, the
    traces and the world's route table, and never pickled: only
    bdrmapIT snapshots need it to annotate, so the others never build
    it unless a caller asks.  ``world`` never pickles either: every
    snapshot shares one world, which is stored on its own, so an
    unpickled result reads ``world=None`` until its owner re-attaches
    one (:func:`reattach_world` for worker results, the training set's
    body loader for a stored timeline), with the routing model, naming
    plan and tracer the derivations use.
    """

    spec: SnapshotSpec
    world: World
    snapshot: ITDKSnapshot
    annotations: Dict[str, int]
    training: List[TrainingItem] = field(default_factory=list)

    # What the derivations work with; re-attached with ``world``, never
    # pickled.  Without a routing model a replay solves its own, and
    # without a naming plan a re-derivation builds one.
    _routing = None
    _naming_plan = None
    _tracer = NULL_TRACER

    @functools.cached_property
    def traces(self) -> TraceSet:
        """The campaign's traces, replayed on first read when the
        campaign kept none."""
        with self._tracer.span("snapshot.replay", snapshot=self.spec.label,
                               method=self.spec.method) as span:
            routing = self._routing if self._routing is not None \
                else RoutingModel(self.world.graph)
            return run_campaign(self.world, routing, self.spec.seed,
                                self.spec.build_config().campaign,
                                span=span)

    @functools.cached_property
    def naming(self) -> NamingOutcome:
        """The snapshot's naming outcome, re-derived on first read when
        the result holds none."""
        with self._tracer.span("snapshot.renaming",
                               snapshot=self.spec.label) as span:
            plan = self._naming_plan = _naming_plan(
                self.world, self._naming_plan, self._tracer)
            naming = snapshot_naming(
                plan, self.spec, self.snapshot.resolution.node_of_address)
            span.set(records=len(naming.records))
            return naming

    @functools.cached_property
    def graph(self) -> RouterGraph:
        """The bdrmapIT router graph of this snapshot's traces."""
        return build_router_graph(self.snapshot.resolution, self.traces,
                                  self.world.plan.route_table)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        for derived in ("traces", "naming", "graph", "world", "_routing",
                        "_naming_plan", "_tracer"):
            state.pop(derived, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.world = None


def run_snapshot(world: World, spec: SnapshotSpec,
                 routing: Optional[RoutingModel] = None,
                 tracer=NULL_TRACER,
                 naming_plan: Optional[NamingPlan] = None) -> SnapshotResult:
    """Produce one snapshot's ITDK, annotations, and training items.

    ``tracer`` wraps the run in a ``snapshot`` span (labelled with the
    spec's label/method) with one child span per stage -- the record
    ``trace summary`` renders per snapshot when the timeline fans these
    out to worker processes.  Only a bdrmapIT snapshot builds its router
    graph, in a ``snapshot.graph`` span before ``snapshot.annotate``; the
    campaign and graph spans count their traces and the shared work
    (``walks``, ``bodies``).  The campaign keeps traces only for a
    method in :data:`TRACE_METHODS`; the result replays the others' on
    first read, and every method's once pickled, with ``routing`` and
    ``tracer``.  ``naming_plan`` is the
    world's :class:`~repro.naming.assigner.NamingPlan` (``None`` builds
    one), so the snapshots of one world share their naming facts; the
    result keeps its naming outcome, and re-derives it from the plan
    once pickled.
    """
    with tracer.span("snapshot", snapshot=spec.label,
                     method=spec.method) as span:
        if routing is None:
            routing = RoutingModel(world.graph)
        with tracer.span("snapshot.naming"):
            naming_plan = _naming_plan(world, naming_plan, tracer)
            # The build's names step adds the destination hosts' records.
            naming = snapshot_naming(naming_plan, spec)
        with tracer.span("snapshot.build"):
            built: BuiltSnapshot = build_snapshot(
                world, naming, spec.seed, spec.label, routing=routing,
                config=spec.build_config(), tracer=tracer,
                keep_traces=spec.method in TRACE_METHODS)
            snapshot = built.snapshot
        result = reattach_world(
            SnapshotResult(spec=spec, world=world, snapshot=snapshot,
                           annotations={}),
            world, routing, tracer, naming_plan)
        result.naming = naming
        if built.traces is not None:
            result.traces = built.traces
        if spec.method == METHOD_BDRMAPIT:
            with tracer.span("snapshot.graph") as graph_span:
                # Built here rather than by the ``graph`` property so the
                # span records its ``traces`` and ``bodies``.
                graph = result.graph = build_router_graph(
                    snapshot.resolution, result.traces,
                    world.plan.route_table, span=graph_span)

        with tracer.span("snapshot.annotate", method=spec.method):
            if spec.method == METHOD_RTAA:
                annotations = rtaa_assign(snapshot.resolution,
                                          world.plan.route_table,
                                          world.graph.relationships)
            elif spec.method == METHOD_BDRMAPIT:
                annotations = annotate(graph, world.graph.relationships,
                                       world.graph.orgs,
                                       AnnotationConfig(), tracer=tracer)
            else:
                raise ValueError("unknown method %r" % spec.method)
            snapshot.set_annotations(annotations, spec.method)
        result.annotations = annotations

        with tracer.span("snapshot.training"):
            result.training = training_items_from_itdk(snapshot)
        span.set(items=len(result.training))
    return result


#: A naming plan to re-attach: the plan, a zero-argument provider
#: called on the first re-derivation (so an owner that builds its plan
#: lazily builds it only if a derivation reads it), or ``None`` to build
#: one then.
PlanSource = Union[NamingPlan, Callable[[], NamingPlan], None]


def _naming_plan(world: World, plan: PlanSource,
                 tracer=NULL_TRACER) -> NamingPlan:
    """``plan`` (from its provider, if it is one), or a new plan of
    ``world`` (built under ``tracer``) when it is ``None``."""
    if callable(plan):
        plan = plan()
    if plan is None:
        return NamingPlan(world, tracer)
    if plan.world is not world:
        raise ValueError("the naming plan belongs to another world")
    return plan


def snapshot_naming(plan: NamingPlan, spec: SnapshotSpec,
                    addresses: Iterable[int] = ()) -> NamingOutcome:
    """The naming outcome of snapshot ``spec``, the one naming path of
    a build and of its re-derivation.

    ``plan`` names the world's interfaces for the spec's seed and naming
    config; then each of ``addresses`` without a record gets its
    destination host's, in sorted-address order
    (:func:`~repro.itdk.builder.name_hosts`).  A build passes no
    addresses, and its names step adds the ITDK's; a re-derivation
    passes the ITDK's addresses.
    """
    naming = plan.assign(spec.seed, spec.naming_config())
    name_hosts(plan.world, naming, spec.seed, addresses)
    return naming


def training_items_from_itdk(snapshot: ITDKSnapshot) -> List[TrainingItem]:
    """(hostname, inferred ASN) items for every annotated named address."""
    items: List[TrainingItem] = []
    for address, hostname in snapshot.named_addresses():
        asn = snapshot.annotation_of_address(address)
        if asn is None or asn <= 0:
            continue
        items.append(TrainingItem(hostname=hostname, train_asn=asn,
                                  address=int_to_ip(address)))
    return items


def training_items_from_peeringdb(pdb: PeeringDBSnapshot,
                                  naming: NamingOutcome) -> List[TrainingItem]:
    """(hostname, recorded ASN) items from netixlan records."""
    items: List[TrainingItem] = []
    for record in pdb.netixlans:
        hostname = naming.hostname(record.ipaddr4)
        if hostname is None:
            continue
        items.append(TrainingItem(hostname=hostname, train_asn=record.asn,
                                  address=record.ip))
    return items


def run_peeringdb_snapshot(world: World, seed: int, label: str,
                           year: float = 2020.0,
                           naming: Optional[NamingOutcome] = None,
                           config: Optional[PeeringDBConfig] = None,
                           naming_plan: Optional[NamingPlan] = None,
                           ) -> List[TrainingItem]:
    """Produce a PeeringDB training set (hostnames + recorded ASNs).

    Without ``naming``, names the world for ``seed`` and ``year`` from
    ``naming_plan`` (``None`` builds one).
    """
    if naming is None:
        naming = _naming_plan(world, naming_plan).assign(
            seed, NamingConfig(year=year))
    pdb = build_peeringdb(world, seed, label, config)
    return training_items_from_peeringdb(pdb, naming)


# -- picklable worker entry points -------------------------------------------
#
# ``parallel_map`` with a process backend needs module-level callables
# whose single argument pickles cleanly.  These wrap the two snapshot
# producers for the timeline's per-snapshot fan-out
# (:func:`repro.eval.timeline.build_timeline`).

#: Fault-injection site label for the snapshot fan-out (one item per
#: :class:`SnapshotTask` / :class:`PeeringDBTask`, in timeline order).
SITE_TIMELINE = "timeline"

@dataclass(frozen=True)
class SnapshotTask:
    """One ITDK snapshot to build in a worker process."""

    world: World
    spec: SnapshotSpec
    routing: Optional[RoutingModel] = None
    naming_plan: Optional[NamingPlan] = None


@dataclass(frozen=True)
class PeeringDBTask:
    """One PeeringDB training set to build in a worker process."""

    world: World
    seed: int
    label: str
    year: float = 2020.0
    naming_plan: Optional[NamingPlan] = None


def run_snapshot_task(task: SnapshotTask,
                      tracer=NULL_TRACER) -> SnapshotResult:
    """Worker entry point: build one ITDK snapshot.

    The result pickles without its world (see :class:`SnapshotResult`),
    so a worker never ships the world back; the caller re-attaches its
    own reference (:func:`reattach_world`).
    """
    return run_snapshot(task.world, task.spec, task.routing, tracer=tracer,
                        naming_plan=task.naming_plan)


def run_peeringdb_snapshot_task(task: PeeringDBTask) -> List[TrainingItem]:
    """Worker entry point: build one PeeringDB training set."""
    return run_peeringdb_snapshot(task.world, task.seed, task.label,
                                  year=task.year,
                                  naming_plan=task.naming_plan)


def reattach_world(result: SnapshotResult, world: World,
                   routing: Optional[RoutingModel] = None,
                   tracer=NULL_TRACER,
                   naming_plan: PlanSource = None,
                   ) -> SnapshotResult:
    """Restore the world reference a worker's result pickled without,
    and give it the routing model its traces replay with, the naming
    plan its naming re-derives from (a :data:`PlanSource`) and the
    tracer that times both."""
    result.world = world
    result._routing = routing
    result._naming_plan = naming_plan
    result._tracer = tracer
    return result
