"""The router graph on demand: warm equals cold, old pickles equal new.

Only bdrmapIT snapshots build their router graph while the timeline is
built; every other one derives it on first use from the alias
resolution, the traces and the world's route table, and no snapshot
result pickles it.  One RTAA and one bdrmapIT TINY snapshot must give
the same graph (and the same section-5 rows) cold and after a store
round trip, equal to the committed digest pins.  A snapshot result
pickled in the earlier layout (a list of traces, the graph in the
instance dict) must load, derive the same graph and relearn to the
same conventions.  It also keeps and returns the traces and the naming
outcome it stored, with no replay and no re-derivation.

A stored timeline keeps each snapshot result as a body that loads on
first use: a warm relearn loads none, and the first read gives the
cold graph, traces and annotations.  A timeline pickled before bodies
were packed must load through the store the same way, and return its
stored RTAA traces and naming without deriving either again.
"""

import gzip
import hashlib
import pickle
import shutil
from pathlib import Path

import pytest

from repro.core.hoiho import Hoiho
from repro.core.io import conventions_to_json
from repro.eval import section5
from repro.eval.context import ExperimentContext, Scale
from repro.obs.trace import Tracer
from repro.naming.assigner import NamingOutcome
from repro.pipeline import SnapshotResult, reattach_world
from repro.store import ArtifactStore, KIND_TIMELINE, KIND_WORLD
from repro.traceroute.probe import TraceSet
from tests.integration.test_repro_digest import (
    SEED,
    expected_digest,
    graph_digest,
    traces_digest,
)

RTAA_LABEL = "2017-02"
BDRMAPIT_LABEL = "2020-01"
LABELS = [RTAA_LABEL, BDRMAPIT_LABEL]
#: A ``SnapshotResult`` for the TINY 2017-02 set, pickled (world
#: stripped, as the store keeps it) by the code before this layout.
PARENT_PICKLE = Path(__file__).resolve().parent.parent / "fixtures" \
    / "snapshot_result_v3_2017-02.pkl.gz"
#: A one-set TINY timeline (2017-02, no PeeringDB, world stripped),
#: pickled by the code before snapshot bodies were packed.
PARENT_TIMELINE = PARENT_PICKLE.parent / "timeline_v3_tiny.pkl.gz"


def _context(store=None, tracer=None, labels=LABELS) -> ExperimentContext:
    kwargs = {"tracer": tracer} if tracer is not None else {}
    return ExperimentContext(SEED, Scale.TINY, itdk_labels=list(labels),
                             include_pdb=False, store=store, **kwargs)


def _spans(tracer, name):
    return [r for r in tracer.records if r["name"] == name]


def _graph_state(graph):
    return graph.states, graph.ixp_subsequent


@pytest.fixture(scope="module")
def pins():
    return expected_digest()["sets"]


@pytest.fixture(scope="module")
def cold_and_warm(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    cold = _context(store)
    cold.learn_timeline()
    warm = _context(ArtifactStore(store.root), tracer=Tracer())
    warm.learn_timeline()
    warm.tracer.close()
    timeline_span = next(r for r in warm.tracer.records
                         if r["name"] == "stage.timeline")
    assert timeline_span["attrs"].get("cached"), "timeline not read back"
    return cold, warm


class TestWarmEqualsCold:
    def test_only_bdrmapit_graph_is_built_cold(self, cold_and_warm):
        cold, _ = cold_and_warm
        assert "graph" not in vars(cold.training_set(RTAA_LABEL).snapshot)
        assert "graph" in vars(cold.training_set(BDRMAPIT_LABEL).snapshot)

    def test_store_round_trip_drops_graph(self, cold_and_warm):
        _, warm = cold_and_warm
        for label in LABELS:
            result = warm.training_set(label).snapshot
            assert "graph" not in vars(result), label
            assert isinstance(result.traces, TraceSet), label

    @pytest.mark.parametrize("label", LABELS)
    def test_warm_graph_equals_cold(self, cold_and_warm, pins, label):
        cold, warm = cold_and_warm
        cold_result = cold.training_set(label).snapshot
        warm_result = warm.training_set(label).snapshot
        assert warm_result.traces == cold_result.traces
        assert _graph_state(warm_result.graph) \
            == _graph_state(cold_result.graph)
        assert warm_result.graph.route_table is warm.world.plan.route_table
        assert graph_digest(warm_result.graph) == pins[label]["graph_sha256"]
        assert traces_digest(warm_result.traces) \
            == pins[label]["traces_sha256"]

    def test_section5_rows_identical(self, cold_and_warm):
        cold, warm = cold_and_warm
        assert section5.render(section5.run(warm)) \
            == section5.render(section5.run(cold))


class TestSnapshotSpans:
    def test_graph_span_only_for_bdrmapit(self):
        tracer = Tracer()
        _context(tracer=tracer).timeline
        tracer.close()
        by_id = {r["id"]: r for r in tracer.records}
        snapshots = {r["attrs"]["snapshot"]: r for r in tracer.records
                     if r["name"] == "snapshot"}
        for label, span in snapshots.items():
            children = sorted((r for r in tracer.records
                               if r["parent"] == span["id"]),
                              key=lambda r: r["start"])
            names = [r["name"] for r in children]
            if label == RTAA_LABEL:
                assert "snapshot.graph" not in names
                continue
            graph = children[names.index("snapshot.graph")]
            annotate = children[names.index("snapshot.annotate")]
            assert names.index("snapshot.graph") + 1 \
                == names.index("snapshot.annotate")
            assert graph["start"] + graph["wall"] <= annotate["start"]
        assert all(by_id[r["parent"]]["name"] == "snapshot"
                   for r in tracer.records if r["name"] == "snapshot.graph")


class TestParentLayoutPickle:
    @pytest.fixture(scope="class")
    def loaded(self):
        result = pickle.loads(gzip.decompress(PARENT_PICKLE.read_bytes()))
        context = ExperimentContext(SEED, Scale.TINY)
        result.world = context.world
        return result, context

    def test_loads_as_columns_without_graph(self, loaded):
        result, _ = loaded
        assert isinstance(result, SnapshotResult)
        assert isinstance(result.traces, TraceSet)
        assert "graph" not in vars(result)

    def test_derives_the_pinned_graph(self, loaded, pins):
        result, _ = loaded
        assert traces_digest(result.traces) \
            == pins[RTAA_LABEL]["traces_sha256"]
        assert graph_digest(result.graph) == pins[RTAA_LABEL]["graph_sha256"]

    def test_relearns_to_the_pinned_digest(self, loaded, pins):
        result, context = loaded
        learned = Hoiho(context.hoiho_config).run(result.training)
        assert hashlib.sha256(conventions_to_json(learned).encode(
            "utf-8")).hexdigest() == pins[RTAA_LABEL]["sha256"]

    def test_returns_its_stored_traces_and_naming(self, loaded):
        result, context = loaded
        stored = pickle.loads(gzip.decompress(PARENT_PICKLE.read_bytes()))
        tracer = Tracer()
        reattach_world(stored, context.world, tracer=tracer)
        assert isinstance(vars(stored).get("traces"), TraceSet)
        assert isinstance(vars(stored).get("naming"), NamingOutcome)
        assert stored.traces == result.traces
        cold = _context(labels=[RTAA_LABEL]).training_set(
            RTAA_LABEL).snapshot
        assert list(stored.naming.records.items()) \
            == list(cold.naming.records.items())
        tracer.close()
        assert not _spans(tracer, "snapshot.replay")
        assert not _spans(tracer, "snapshot.renaming")

    def test_repickles_without_graph(self, loaded):
        """An RTAA result re-pickles without its traces either; with its
        world re-attached it replays the traces it loaded with."""
        result, _ = loaded
        result.graph
        again = pickle.loads(pickle.dumps(result))
        assert "graph" not in vars(again)
        assert "traces" not in vars(again)
        again.world = result.world
        assert again.traces == result.traces


class TestBodiesLoadOnFirstUse:
    @pytest.fixture(scope="class")
    def relearned(self, cold_and_warm, tmp_path_factory):
        """A relearn from a store holding only the world and timeline."""
        cold, _ = cold_and_warm
        root = tmp_path_factory.mktemp("relearn")
        for kind in (KIND_WORLD, KIND_TIMELINE):
            shutil.copytree(cold.store.root / kind, root / kind)
        tracer = Tracer()
        context = _context(ArtifactStore(root), tracer=tracer)
        context.learn_timeline()
        # What the relearn alone did, before any test reads a body.
        loaded = [t.label for t in context.timeline
                  if t._snapshot is not None]
        return context, tracer, list(tracer.records), loaded

    def test_relearn_loads_no_body(self, relearned):
        _, _, records, loaded = relearned
        names = [r["name"] for r in records]
        timeline = next(r for r in records if r["name"] == "stage.timeline")
        assert timeline["attrs"]["cached"]
        assert "learn.group" in names
        assert "timeline.body" not in names
        assert loaded == []

    def test_first_read_equals_cold(self, cold_and_warm, relearned):
        cold, _ = cold_and_warm
        context, tracer, _, _ = relearned
        for label in LABELS:
            training_set = context.training_set(label)
            result = training_set.snapshot
            cold_result = cold.training_set(label).snapshot
            assert result.world is context.world
            assert result.training is training_set.items
            assert result.annotations == cold_result.annotations
            assert result.traces == cold_result.traces
            assert _graph_state(result.graph) \
                == _graph_state(cold_result.graph)
        loads = _spans(tracer, "timeline.body")
        assert [r["attrs"]["snapshot"] for r in loads] == LABELS

    def test_section5_times_its_body_load(self, cold_and_warm):
        cold, _ = cold_and_warm
        tracer = Tracer()
        context = _context(ArtifactStore(cold.store.root), tracer=tracer)
        section5.run(context)
        tracer.close()
        loads = _spans(tracer, "timeline.body")
        assert [r["attrs"]["snapshot"] for r in loads] == [BDRMAPIT_LABEL]
        assert loads[0]["parent"] is None
        timeline = _spans(tracer, "stage.timeline")[0]
        assert loads[0]["start"] >= timeline["start"] + timeline["wall"]


class TestParentLayoutTimeline:
    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """A context whose store holds the parent-layout timeline."""
        store = ArtifactStore(tmp_path_factory.mktemp("v3"))
        context = _context(store, tracer=Tracer(), labels=[RTAA_LABEL])
        path = store.path_for(KIND_TIMELINE, context._timeline_payload())
        path.parent.mkdir(parents=True)
        path.write_bytes(gzip.decompress(PARENT_TIMELINE.read_bytes()))
        context.timeline
        assert _spans(context.tracer, "stage.timeline")[0]["attrs"] \
            .get("cached"), "timeline not read back"
        return context

    def test_body_matches_the_pins(self, loaded, pins):
        training_set = loaded.training_set(RTAA_LABEL)
        result = training_set.snapshot
        assert isinstance(result, SnapshotResult)
        assert result.world is loaded.world
        assert result.training is training_set.items
        assert traces_digest(result.traces) \
            == pins[RTAA_LABEL]["traces_sha256"]
        assert graph_digest(result.graph) == pins[RTAA_LABEL]["graph_sha256"]

    def test_returns_its_stored_traces_without_a_replay(self, loaded):
        result = loaded.training_set(RTAA_LABEL).snapshot
        assert isinstance(vars(result).get("traces"), TraceSet)
        assert traces_digest(result.traces) \
            == expected_digest()["sets"][RTAA_LABEL]["traces_sha256"]
        assert not _spans(loaded.tracer, "snapshot.replay")

    def test_returns_its_stored_naming_without_a_rederivation(self,
                                                              loaded):
        result = loaded.training_set(RTAA_LABEL).snapshot
        naming = vars(result).get("naming")
        assert isinstance(naming, NamingOutcome) and naming.records
        assert result.naming is naming
        cold = _context(labels=[RTAA_LABEL]).training_set(RTAA_LABEL)
        assert list(naming.records.items()) \
            == list(cold.snapshot.naming.records.items())
        assert not _spans(loaded.tracer, "snapshot.renaming")

    def test_relearns_to_the_pinned_digest(self, loaded, pins):
        learned = loaded.learned(RTAA_LABEL)
        assert hashlib.sha256(conventions_to_json(learned).encode(
            "utf-8")).hexdigest() == pins[RTAA_LABEL]["sha256"]

    def test_section5_rows_equal_cold(self, loaded):
        cold = _context(labels=[RTAA_LABEL])
        assert section5.render(section5.run(loaded)) \
            == section5.render(section5.run(cold))

    def test_repickles_an_unread_body_packed(self, loaded):
        old = pickle.loads(gzip.decompress(PARENT_TIMELINE.read_bytes()))
        assert isinstance(old[0]._body, SnapshotResult)
        again = pickle.loads(pickle.dumps(old))
        assert [t.label for t in again] == [RTAA_LABEL]
        assert isinstance(again[0]._body, bytes)
        again[0].adopt(loaded.world)
        assert again[0].snapshot.traces \
            == loaded.training_set(RTAA_LABEL).snapshot.traces
