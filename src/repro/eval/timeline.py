"""The 19 training sets of the paper (section 4).

Seventeen ITDK snapshots span July 2010 to January 2020: the first
twelve annotated with RouterToAsAssignment, the last five with bdrmapIT
(matching the real ITDK history).  Two PeeringDB snapshots complete the
set.  Three growth factors play out along the timeline, as in the paper:
vantage points increase, more operators adopt ASN-embedding conventions
(their adoption years are world properties), and the annotation method
improves in 2017.
"""

from __future__ import annotations

import copy
import logging
import pickle
from typing import Dict, List, Optional, Tuple

from repro.core.parallel import ParallelConfig, parallel_map
from repro.core.types import TrainingItem
from repro.itdk.builder import BuildConfig
from repro.naming.assigner import NamingPlan
from repro.traceroute.campaign import CampaignConfig
from repro.core.resilience import RetryPolicy
from repro.obs.trace import NULL_TRACER
from repro.pipeline import (
    METHOD_BDRMAPIT,
    METHOD_RTAA,
    PeeringDBTask,
    PlanSource,
    SITE_TIMELINE,
    SnapshotResult,
    SnapshotSpec,
    SnapshotTask,
    reattach_world,
    run_peeringdb_snapshot_task,
    run_snapshot_task,
)
from repro.topology.world import World
from repro.traceroute.routing import RoutingModel
from repro.util.rand import substream

logger = logging.getLogger(__name__)

KIND_ITDK = "itdk"
KIND_PDB = "peeringdb"

#: (label, year, method) for the 17 ITDK snapshots.
ITDK_TIMELINE = [
    ("2010-07", 2010.5, METHOD_RTAA),
    ("2011-04", 2011.3, METHOD_RTAA),
    ("2011-10", 2011.8, METHOD_RTAA),
    ("2012-07", 2012.5, METHOD_RTAA),
    ("2013-04", 2013.3, METHOD_RTAA),
    ("2013-07", 2013.5, METHOD_RTAA),
    ("2014-04", 2014.3, METHOD_RTAA),
    ("2014-12", 2014.9, METHOD_RTAA),
    ("2015-08", 2015.6, METHOD_RTAA),
    ("2016-03", 2016.2, METHOD_RTAA),
    ("2016-09", 2016.7, METHOD_RTAA),
    ("2017-02", 2017.1, METHOD_RTAA),
    ("2017-08", 2017.6, METHOD_BDRMAPIT),
    ("2018-03", 2018.2, METHOD_BDRMAPIT),
    ("2019-01", 2019.0, METHOD_BDRMAPIT),
    ("2019-04", 2019.3, METHOD_BDRMAPIT),
    ("2020-01", 2020.0, METHOD_BDRMAPIT),
]

#: (label, year) for the PeeringDB snapshots.
PDB_TIMELINE = [
    ("2019-08-pdb", 2019.6),
    ("2020-02-pdb", 2020.1),
]


def vps_for_year(year: float) -> int:
    """Vantage-point count grows roughly linearly over the study period."""
    return max(6, int(round(8 + (year - 2010.0) * 2.6)))


def alias_augment_for_year(year: float) -> float:
    """Alias-resolution completeness improves over the study period.

    MIDAR-era active alias probing got better between 2010 and 2020;
    lower completeness means more routers are seen only through their
    supplier-addressed interface, which is what degrades the
    RouterToAsAssignment-era training quality visible in figure 6.
    """
    return min(0.75, max(0.63, 0.63 + (year - 2010.0) * 0.012))


class TrainingSet:
    """One training set: label, provenance, and the items themselves.

    ``snapshot`` is the ITDK snapshot the items came from (``None`` for
    a PeeringDB set).  A training set pickles it as a separate body --
    a pickled :class:`SnapshotResult` without its world or its items --
    and an unpickled set loads that body on the first read of
    ``snapshot``, under a ``timeline.body`` span.  Learning reads only
    ``items``, so relearning a stored timeline never loads a body.  A
    body holds no traces and no naming records: a loaded result replays
    its campaign and re-derives its naming on first read of each (see
    :class:`SnapshotResult`).  :meth:`adopt` gives an unpickled set the
    world its body is re-attached to, the routing model its traces
    replay with, the naming plan its naming re-derives from, and the
    tracer that times the load and both derivations.
    """

    def __init__(self, label: str, kind: str, method: str, year: float,
                 items: List[TrainingItem],
                 snapshot: Optional[SnapshotResult] = None) -> None:
        self.label = label
        self.kind = kind               # itdk | peeringdb
        self.method = method           # rtaa | bdrmapit | operator
        self.year = year
        self.items = items
        self._snapshot = snapshot
        # A stored body not yet loaded: pickled bytes or, from a
        # timeline pickled before bodies were packed, an unpickled
        # result without its world.
        self._body: object = None
        self._world: Optional[World] = None
        self._routing: Optional[RoutingModel] = None
        self._naming_plan: PlanSource = None
        self._tracer = NULL_TRACER

    @property
    def snapshot(self) -> Optional[SnapshotResult]:
        """The snapshot result, its stored body loaded on first read."""
        if self._body is not None:
            with self._tracer.span("timeline.body", snapshot=self.label):
                body = self._body
                if isinstance(body, bytes):
                    body = pickle.loads(body)
                reattach_world(body, self._world, self._routing,
                               self._tracer, self._naming_plan)
                body.training = self.items
            self._snapshot, self._body = body, None
        return self._snapshot

    def adopt(self, world: World, tracer=NULL_TRACER,
              routing: Optional[RoutingModel] = None,
              naming_plan: PlanSource = None) -> None:
        """Re-attach ``world``, ``routing`` and ``naming_plan`` (a
        :data:`~repro.pipeline.PlanSource`, read only if the naming is)
        to this set's body when it loads, under a span on ``tracer``."""
        self._world = world
        self._routing = routing
        self._naming_plan = naming_plan
        self._tracer = tracer

    def __getstate__(self) -> Dict[str, object]:
        body = self._body
        if not isinstance(body, bytes):
            result = self._snapshot if body is None else body
            if result is not None:
                result = copy.copy(result)
                result.training = []
                body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        return {"label": self.label, "kind": self.kind,
                "method": self.method, "year": self.year,
                "items": self.items, "body": body}

    def __setstate__(self, state: Dict[str, object]) -> None:
        state = dict(state)
        # Before bodies were packed, a set pickled its result as is.
        body = state.pop("body", state.pop("snapshot", None))
        self.__init__(**state)  # type: ignore[misc]
        self._body = body


def _timeline_tasks(world: World, seed: int,
                    routing: Optional[RoutingModel],
                    itdk_labels: Optional[List[str]],
                    include_pdb: bool,
                    naming_plan: Optional[NamingPlan] = None,
                    ) -> List[object]:
    """The timeline's snapshot tasks, in timeline order."""
    tasks: List[object] = []
    wanted = set(itdk_labels) if itdk_labels is not None else None
    for label, year, method in ITDK_TIMELINE:
        if wanted is not None and label not in wanted:
            continue
        spec = SnapshotSpec(
            label=label, year=year, method=method,
            n_vps=vps_for_year(year),
            seed=substream(seed, "snapshot", label).randrange(1 << 30),
            build=BuildConfig(
                campaign=CampaignConfig(n_vps=vps_for_year(year)),
                alias_augment_rate=alias_augment_for_year(year)))
        tasks.append(SnapshotTask(world=world, spec=spec, routing=routing,
                                  naming_plan=naming_plan))
    if include_pdb:
        for label, year in PDB_TIMELINE:
            pdb_seed = substream(seed, "snapshot", label).randrange(1 << 30)
            tasks.append(PeeringDBTask(world=world, seed=pdb_seed,
                                       label=label, year=year,
                                       naming_plan=naming_plan))
    return tasks


def _timeline_worker(task: object, tracer=NULL_TRACER) -> object:
    """Dispatch one timeline task (runs in the calling or a worker
    process; the task and result both pickle)."""
    if isinstance(task, SnapshotTask):
        return run_snapshot_task(task, tracer=tracer)
    assert isinstance(task, PeeringDBTask)
    with tracer.span("snapshot.peeringdb", snapshot=task.label):
        return run_peeringdb_snapshot_task(task)


def build_timeline(world: World, seed: int,
                   routing: Optional[RoutingModel] = None,
                   itdk_labels: Optional[List[str]] = None,
                   include_pdb: bool = True,
                   parallel: Optional[ParallelConfig] = None,
                   retry: Optional[RetryPolicy] = None,
                   tracer=NULL_TRACER,
                   naming_plan: Optional[NamingPlan] = None,
                   ) -> List[TrainingSet]:
    """Produce all training sets for ``world``.

    ``itdk_labels`` restricts which ITDK snapshots run (useful for
    scaled-down benchmarks); default is all seventeen.  ``parallel``
    fans one task per snapshot out over worker processes; tasks are
    generated in timeline order and ``parallel_map`` preserves input
    order, so parallel output is byte-identical to serial output (each
    snapshot is an independent deterministic function of the world and
    its spec).  ``retry`` arms the resilient dispatcher: transient
    worker faults and pool losses are retried instead of aborting the
    build (a snapshot that fails permanently still raises -- a timeline
    with holes would silently skew every downstream experiment).
    ``tracer`` wraps the build in a ``timeline`` span; workers capture
    their per-snapshot spans and the coordinator adopts them under it,
    with retries surfacing live as ``retry`` span events.
    ``naming_plan`` is the world's
    :class:`~repro.naming.assigner.NamingPlan`, which every snapshot
    names its interfaces from; ``None`` builds one.
    """
    if routing is None:
        routing = RoutingModel(world.graph)
    parallel = parallel or ParallelConfig.serial()
    with tracer.span("timeline") as span:
        if naming_plan is None:
            naming_plan = NamingPlan(world, tracer)
        tasks = _timeline_tasks(world, seed, routing, itdk_labels,
                                include_pdb, naming_plan)
        span.set(snapshots=len(tasks))
        results = parallel_map(_timeline_worker, tasks, parallel,
                               retry=retry, site=SITE_TIMELINE, span=span)

    sets: List[TrainingSet] = []
    for task, result in zip(tasks, results):
        if isinstance(task, SnapshotTask):
            snapshot_result = reattach_world(result, world, routing, tracer,
                                             naming_plan)
            logger.info("built %s (%s): %d training items",
                        task.spec.label, task.spec.method,
                        len(snapshot_result.training))
            sets.append(TrainingSet(
                label=task.spec.label, kind=KIND_ITDK,
                method=task.spec.method, year=task.spec.year,
                items=snapshot_result.training, snapshot=snapshot_result))
        else:
            sets.append(TrainingSet(label=task.label, kind=KIND_PDB,
                                    method="operator", year=task.year,
                                    items=result))
    _share_items(sets)
    return sets


def _share_items(sets: List[TrainingSet]) -> None:
    """Make equal items of ``sets`` one object, in place.

    The sets overlap heavily (at SMALL scale 24,574 items, 6,273 of
    them distinct), and items are frozen, so every set holds the first
    :class:`TrainingItem` seen for each (hostname, ASN, address).  A
    pickled timeline then stores each distinct item once.  Each set's
    list is rewritten in place, so a snapshot result holding the same
    list as its ``training`` shares the items too.
    """
    shared: Dict[Tuple[str, int, Optional[str]], TrainingItem] = {}
    for training_set in sets:
        items = training_set.items
        items[:] = [shared.setdefault(
            (item.hostname, item.train_asn, item.address), item)
            for item in items]
