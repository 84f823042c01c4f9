"""Spans covering learning's grouping and planning time.

Grouping training items by suffix and planning the store-backed delta
used to run untraced inside ``stage.learn``; ``learn.group`` and
``learn.plan`` now account for that time.
"""

import pytest

from repro.eval.context import ExperimentContext, Scale
from repro.obs.trace import Tracer
from repro.store import ArtifactStore

LABELS = ["2019-01", "2020-01"]


def _traced_learn(store=None):
    context = ExperimentContext(seed=7, scale=Scale.TINY, itdk_labels=LABELS,
                                include_pdb=False, store=store,
                                tracer=Tracer())
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
        assert "stage.learn" in _ancestors(group, by_id)
        assert group["attrs"]["items"] > 0
        assert group["attrs"]["suffixes"] > 0


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
