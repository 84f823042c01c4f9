"""Edge cases of the training-set timeline and its context accessors."""

import pickle

import pytest

from repro.core.types import TrainingItem
from repro.eval.context import ExperimentContext, Scale
from repro.eval.timeline import (
    ITDK_TIMELINE,
    PDB_TIMELINE,
    build_timeline,
    vps_for_year,
    alias_augment_for_year,
)
from repro.store import ArtifactStore, KIND_TIMELINE
from repro.topology.world import WorldConfig, generate_world


@pytest.fixture(scope="module")
def world():
    return generate_world(23, WorldConfig.tiny())


class TestBuildTimelineRestrictions:
    def test_restricted_itdk_labels(self, world):
        sets = build_timeline(world, 23, itdk_labels=["2019-01", "2020-01"])
        itdk = [t for t in sets if t.kind == "itdk"]
        assert [t.label for t in itdk] == ["2019-01", "2020-01"]
        # PeeringDB sets still ride along by default.
        assert [t.label for t in sets if t.kind == "peeringdb"] \
            == [label for label, _ in PDB_TIMELINE]

    def test_restriction_preserves_timeline_order(self, world):
        # Labels given out of order still come back in timeline order.
        sets = build_timeline(world, 23,
                              itdk_labels=["2020-01", "2017-08"],
                              include_pdb=False)
        assert [t.label for t in sets] == ["2017-08", "2020-01"]

    def test_unknown_label_is_ignored(self, world):
        sets = build_timeline(world, 23, itdk_labels=["1999-12"],
                              include_pdb=False)
        assert sets == []

    def test_include_pdb_false(self, world):
        sets = build_timeline(world, 23, itdk_labels=["2020-01"],
                              include_pdb=False)
        assert [t.kind for t in sets] == ["itdk"]

    def test_pdb_only(self, world):
        sets = build_timeline(world, 23, itdk_labels=[])
        assert [t.kind for t in sets] == ["peeringdb", "peeringdb"]
        for training_set in sets:
            assert training_set.method == "operator"
            assert training_set.snapshot is None

    def test_snapshot_worlds_reattached(self, world):
        sets = build_timeline(world, 23, itdk_labels=["2020-01"],
                              include_pdb=False)
        assert sets[0].snapshot is not None
        assert sets[0].snapshot.world is world

    def test_methods_follow_the_2017_transition(self, world):
        labels = ["2017-02", "2017-08"]
        sets = build_timeline(world, 23, itdk_labels=labels,
                              include_pdb=False)
        assert [t.method for t in sets] == ["rtaa", "bdrmapit"]


class TestPackedBodies:
    """A training set pickles its snapshot as a body loaded on first use."""

    @pytest.fixture(scope="class")
    def built(self, world):
        return build_timeline(world, 23, itdk_labels=["2017-02"])

    def test_pickling_leaves_the_live_set_alone(self, world, built):
        pickle.dumps(built)
        assert built[0].snapshot.world is world
        assert built[0].snapshot.training is built[0].items

    def test_body_pickles_without_world_or_items(self, built):
        body = built[0].__getstate__()["body"]
        assert isinstance(body, bytes)
        result = pickle.loads(body)
        assert result.world is None
        assert result.training == []

    def test_body_loads_on_first_read(self, world, built):
        again = pickle.loads(pickle.dumps(built[0]))
        assert isinstance(again._body, bytes)
        again.adopt(world)
        result = again.snapshot
        assert again._body is None
        assert again.snapshot is result
        assert result.world is world
        assert result.training is again.items
        assert result.annotations == built[0].snapshot.annotations
        assert result.traces == built[0].snapshot.traces

    def test_unadopted_body_loads_without_world(self, built):
        again = pickle.loads(pickle.dumps(built[0]))
        assert again.snapshot.world is None

    def test_peeringdb_set_has_no_body(self, built):
        pdb = pickle.loads(pickle.dumps(built[-1]))
        assert pdb.kind == "peeringdb"
        assert pdb.snapshot is None
        assert [item.hostname for item in pdb.items] \
            == [item.hostname for item in built[-1].items]

    def test_repickling_an_unloaded_body_reuses_it(self, built):
        again = pickle.loads(pickle.dumps(built[0]))
        body = again._body
        assert pickle.loads(pickle.dumps(again))._body == body
        assert again._body is body


def _key(item):
    return item.hostname, item.train_asn, item.address


class TestSharedItems:
    """Equal items of a timeline's sets are one object, so a stored
    timeline pickles each distinct item once.  (A timeline pickled
    before, with an object per item and set, still loads and learns
    the pinned digests: ``TestParentLayoutTimeline`` in
    ``tests/eval/test_graph_on_demand.py``.)"""

    LABELS = ["2019-01", "2019-04", "2020-01"]

    @pytest.fixture(scope="class")
    def context(self, tmp_path_factory):
        context = ExperimentContext(
            seed=23, scale=Scale.TINY, itdk_labels=self.LABELS,
            store=ArtifactStore(tmp_path_factory.mktemp("store")))
        context.timeline
        return context

    @staticmethod
    def _objects(sets):
        objects = {}
        for training_set in sets:
            for item in training_set.items:
                objects.setdefault(_key(item), set()).add(id(item))
        return objects

    def test_one_object_per_distinct_item(self, context):
        sets = context.timeline
        objects = self._objects(sets)
        assert sum(len(t.items) for t in sets) > len(objects), \
            "the sets do not overlap"
        assert all(len(ids) == 1 for ids in objects.values())
        for training_set in sets:
            if training_set.kind == "itdk":
                assert training_set.snapshot.training is training_set.items

    def test_stored_timeline_keeps_the_sharing(self, context):
        stored = ArtifactStore(context.store.root).get(
            KIND_TIMELINE, context._timeline_payload())
        assert [[_key(i) for i in t.items] for t in stored] \
            == [[_key(i) for i in t.items] for t in context.timeline]
        assert all(len(ids) == 1 for ids in self._objects(stored).values())

    def test_stored_entry_is_smaller_than_unshared(self, context):
        path = context.store.path_for(KIND_TIMELINE,
                                      context._timeline_payload())
        unshared = pickle.loads(path.read_bytes())
        for training_set in unshared:
            training_set.items[:] = [TrainingItem(*_key(item))
                                     for item in training_set.items]
        assert path.stat().st_size < len(pickle.dumps(
            unshared, protocol=pickle.HIGHEST_PROTOCOL))


class TestGrowthFactors:
    def test_vps_grow_over_the_decade(self):
        years = [year for _, year, _ in ITDK_TIMELINE]
        vps = [vps_for_year(year) for year in years]
        assert vps == sorted(vps)
        assert vps[-1] > vps[0]

    def test_alias_augment_bounded(self):
        for _, year, _ in ITDK_TIMELINE:
            assert 0.63 <= alias_augment_for_year(year) <= 0.75


class TestContextAccessors:
    def test_training_set_keyerror(self):
        context = ExperimentContext(seed=23, scale=Scale.TINY,
                                    itdk_labels=["2020-01"])
        with pytest.raises(KeyError):
            context.training_set("2012-07")

    def test_latest_itdk_runtimeerror_when_pdb_only(self):
        context = ExperimentContext(seed=23, scale=Scale.TINY,
                                    itdk_labels=[])
        with pytest.raises(RuntimeError):
            context.latest_itdk()

    def test_latest_pdb_runtimeerror_when_excluded(self):
        context = ExperimentContext(seed=23, scale=Scale.TINY,
                                    itdk_labels=["2020-01"],
                                    include_pdb=False)
        assert context.latest_itdk().label == "2020-01"
        with pytest.raises(RuntimeError):
            context.latest_pdb()

    def test_include_pdb_false_timeline(self):
        context = ExperimentContext(seed=23, scale=Scale.TINY,
                                    itdk_labels=["2020-01"],
                                    include_pdb=False)
        assert [t.kind for t in context.timeline] == ["itdk"]
