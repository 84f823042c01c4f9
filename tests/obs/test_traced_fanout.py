"""Tracing through every fan-out route, serial and process-backed.

Five routes fan work out to workers: ``Hoiho.run`` (per suffix),
storeless and store-backed ``learn_timeline`` (both per unique suffix,
through the delta planner), ``build_timeline`` (per snapshot) and
``BulkAnnotator.annotate`` (per chunk).  For each route and backend:

* a traced run returns exactly what an untraced run returns;
* every span a worker captured is adopted under the route's
  coordinating span (worker-local children keep their worker parents),
  and the serial backend captures nothing: its items write into the
  coordinator's own tracer;
* a fault injected into the first item, under a retry policy, shows up
  as a ``retry`` event on the coordinating span.
"""

import tempfile
from dataclasses import dataclass
from typing import Callable, Tuple

import pytest

from repro.core.hoiho import Hoiho, HoihoConfig
from repro.core.io import conventions_to_json, training_to_jsonl
from repro.core.parallel import ParallelConfig
from repro.core.resilience import ENV_FAULT_INJECT, RetryPolicy
from repro.core.types import TrainingItem
from repro.eval.context import ExperimentContext, Scale
from repro.eval.timeline import TrainingSet, build_timeline
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.engine import BulkAnnotator
from repro.serve.service import AnnotationService
from repro.store import ArtifactStore
from repro.topology.world import WorldConfig, generate_world

FAST = HoihoConfig(max_candidates=60, generation_sample=20, eval_pool=20,
                   set_pool=6, n_seeds=2)
RETRY = RetryPolicy(backoff_base=0.0)
BACKENDS = {
    "serial": ParallelConfig.serial(),
    "process": ParallelConfig(workers=2, backend="process", chunk_size=1),
}


def _items(label_shift=0, n_suffixes=3, per_suffix=12):
    items = []
    for index in range(n_suffixes):
        suffix = "fan%02d-trace.org" % index
        base = 3000 + 100 * index + label_shift * (index == 0)
        for i in range(per_suffix):
            items.append(TrainingItem(
                "as%d-et0.pop%d.%s" % (base + 7 * i, i % 3, suffix),
                base + 7 * i))
    return items


def _sets():
    return [TrainingSet(label=label, kind="itdk", method="rtaa",
                        year=2020.0, items=_items(shift))
            for label, shift in (("s0", 0), ("s1", 5))]


def _run_hoiho(parallel, retry, tracer, tmp_path):
    result = Hoiho(FAST, parallel=parallel, retry=retry,
                   tracer=tracer).run(_items())
    return conventions_to_json(result)


def _learn_timeline(parallel, retry, tracer, store):
    context = ExperimentContext(seed=3, scale=Scale.TINY, hoiho_config=FAST,
                                parallel=parallel, retry=retry,
                                tracer=tracer, store=store)
    context._timeline = _sets()
    learned = context.learn_timeline()
    return {label: conventions_to_json(result)
            for label, result in learned.items()}


def _run_timeline_storeless(parallel, retry, tracer, tmp_path):
    return _learn_timeline(parallel, retry, tracer, None)


def _run_timeline_stored(parallel, retry, tracer, tmp_path):
    # A fresh store per run: a warm one would dispatch nothing.
    store = ArtifactStore(tempfile.mkdtemp(dir=str(tmp_path)))
    return _learn_timeline(parallel, retry, tracer, store)


def _run_build_timeline(parallel, retry, tracer, tmp_path):
    world = generate_world(31, WorldConfig.tiny())
    sets = build_timeline(world, 31, itdk_labels=["2020-01"],
                          parallel=parallel, retry=retry, tracer=tracer)
    return [(t.label, t.kind, training_to_jsonl(t.items)) for t in sets]


def _run_bulk(parallel, retry, tracer, tmp_path):
    result = Hoiho().run([
        TrainingItem("as%d.pop%d.example.com" % (asn, i % 3), asn)
        for i, asn in enumerate([3356, 1299, 174, 2914, 6453])])
    hostnames = ["as%d.pop%d.example.com" % (100 + i, i % 3)
                 if i % 4 != 3 else "miss%d.unknown.net" % i
                 for i in range(40)]
    annotator = BulkAnnotator(AnnotationService(result), parallel=parallel,
                              chunk_size=8, retry=retry, tracer=tracer)
    return list(annotator.annotate(hostnames))


@dataclass(frozen=True)
class Route:
    run: Callable
    coordinator: str            # the coordinating span's name
    roots: Tuple[str, ...]      # worker-root span names under it
    site: str                   # fault-injection site of the fan-out
    serial_retry: bool = True   # whether the serial path dispatches


ROUTES = {
    "hoiho": Route(_run_hoiho, "learn.run", ("learn.suffix",), "learn"),
    "timeline-storeless": Route(_run_timeline_storeless, "stage.learn",
                                ("learn.suffix",), "learn"),
    "timeline-stored": Route(_run_timeline_stored, "stage.learn",
                             ("learn.suffix",), "learn"),
    "build-timeline": Route(_run_build_timeline, "timeline",
                            ("snapshot", "snapshot.peeringdb"), "timeline"),
    # The serial bulk path annotates in-process through the service
    # (no worker dispatch), so there is no fault to retry there.
    "bulk": Route(_run_bulk, "serve.bulk", ("serve.chunk",),
                  "bulk-annotate", serial_retry=False),
}


def _prefix(span_id: str) -> str:
    return span_id.rsplit("-", 1)[0]


def _coordinator(records, name):
    [record] = [r for r in records if r["name"] == name]
    return record


def _traced(route, parallel, retry, tmp_path):
    tracer = Tracer()
    value = route.run(parallel, retry, tracer, tmp_path)
    tracer.close()
    return value, tracer.records


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("name", sorted(ROUTES))
class TestTracedFanOut:
    def test_traced_equals_untraced(self, name, backend, tmp_path):
        route, parallel = ROUTES[name], BACKENDS[backend]
        untraced = route.run(parallel, None, NULL_TRACER, tmp_path)
        traced, _ = _traced(route, parallel, None, tmp_path)
        assert traced == untraced

    def test_worker_roots_parent_under_coordinator(self, name, backend,
                                                   tmp_path):
        route, parallel = ROUTES[name], BACKENDS[backend]
        _, records = _traced(route, parallel, None, tmp_path)
        coordinator = _coordinator(records, route.coordinator)
        roots = [r for r in records if r["name"] in route.roots]
        assert roots
        assert all(r["parent"] == coordinator["id"] for r in roots)
        # Any span captured by a worker-local tracer (its id carries a
        # foreign prefix) is either a worker root adopted under the
        # coordinator or nested under another worker span.
        home = _prefix(coordinator["id"])
        foreign = {r["id"] for r in records if _prefix(r["id"]) != home}
        if backend == "serial":
            # In-process work writes into the coordinator's own tracer:
            # no worker-local tracer, so no foreign prefix.
            assert not foreign
        for record in records:
            if record["id"] in foreign:
                assert record["parent"] in foreign \
                    or record["parent"] == coordinator["id"], record

    def test_injected_fault_is_a_retry_event(self, name, backend, tmp_path,
                                             monkeypatch):
        route, parallel = ROUTES[name], BACKENDS[backend]
        if backend == "serial" and not route.serial_retry:
            pytest.skip("the serial path of this route has no fan-out")
        expected = route.run(parallel, None, NULL_TRACER, tmp_path)
        monkeypatch.setenv(ENV_FAULT_INJECT, "%s:0:raise:0" % route.site)
        value, records = _traced(route, parallel, RETRY, tmp_path)
        assert value == expected
        coordinator = _coordinator(records, route.coordinator)
        retries = [e for e in coordinator["events"] if e["name"] == "retry"]
        assert retries and retries[0]["attrs"]["site"] == route.site
