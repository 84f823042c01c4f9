"""Spans covering learning's grouping and planning time.

Every learn -- storeless or store-backed -- plans through the delta
planner: ``learn.plan`` times grouping (one ``learn.group`` per
training set), fingerprinting and any store lookups, so none of that
runs untraced inside ``stage.learn``.  The sets share one
hostname-to-domain memo: each ``learn.group`` counts in ``hostnames``
only the hostnames it looked up in the public suffix list.
"""

import pytest

from repro.eval.context import ExperimentContext, Scale
from repro.obs.trace import Tracer
from repro.store import ArtifactStore

LABELS = ["2019-01", "2020-01"]


def _context(store=None):
    return ExperimentContext(seed=7, scale=Scale.TINY, itdk_labels=LABELS,
                             include_pdb=False, store=store,
                             tracer=Tracer())


def _traced_learn(store=None):
    context = _context(store)
    context.learn_timeline()
    context.tracer.close()
    return context.tracer.records


def _ancestors(record, by_id):
    while record["parent"] is not None:
        record = by_id[record["parent"]]
        yield record["name"]


@pytest.fixture(scope="module")
def storeless():
    return _traced_learn()


def test_one_learn_group_per_training_set(storeless):
    by_id = {r["id"]: r for r in storeless}
    groups = [r for r in storeless if r["name"] == "learn.group"]
    assert len(groups) == len(LABELS)
    for group in groups:
        assert list(_ancestors(group, by_id)) == ["learn.plan",
                                                  "stage.learn"]
        assert group["attrs"]["items"] > 0
        assert group["attrs"]["suffixes"] > 0


def test_learn_group_looks_up_each_hostname_once(storeless):
    groups = [r["attrs"] for r in storeless if r["name"] == "learn.group"]
    first, second = groups
    # The first set looks up all its hostnames; the second only those
    # the first did not hold.
    assert first["hostnames"] > 0
    assert 0 <= second["hostnames"] < second["items"]
    context = _context()
    distinct = {item.hostname for training_set in context.timeline
                for item in training_set.items}
    assert sum(g["hostnames"] for g in groups) == len(distinct)


def test_storeless_learn_has_learn_plan(storeless):
    by_id = {r["id"]: r for r in storeless}
    [plan] = [r for r in storeless if r["name"] == "learn.plan"]
    assert by_id[plan["parent"]]["name"] == "stage.learn"
    learn = by_id[plan["parent"]]
    assert plan["attrs"]["plans"] == learn["attrs"]["suffix_plans"] > 0


def test_store_backed_learn_has_learn_plan(tmp_path):
    records = _traced_learn(ArtifactStore(tmp_path / "cache"))
    by_id = {r["id"]: r for r in records}
    [plan] = [r for r in records if r["name"] == "learn.plan"]
    assert by_id[plan["parent"]]["name"] == "stage.learn"
    assert plan["attrs"]["plans"] > 0
    # The store lookups of the plan run inside it.
    gets = [r for r in records if r["name"] == "store.get"
            and r["attrs"].get("kind") == "suffixes"]
    assert gets and all(g["parent"] == plan["id"] for g in gets)


def test_cached_counts_only_whole_result_store_hits(tmp_path):
    # A label already learned in this context is neither a store
    # lookup nor a store hit; the label looked up missed.
    context = _context(ArtifactStore(tmp_path / "cache"))
    context.learned("2020-01")
    context.learn_timeline(["2020-01", "2019-01"])
    context.tracer.close()
    records = context.tracer.records
    hoiho_gets = [r for r in records if r["name"] == "store.get"
                  and r["attrs"].get("kind") == "hoiho"]
    assert [g["attrs"]["hit"] for g in hoiho_gets] == [False, False]
    learns = [r for r in records if r["name"] == "stage.learn"]
    assert [r["attrs"]["cached"] for r in learns] == [0, 0]
    assert [r["attrs"]["sets"] for r in learns] == [1, 1]
