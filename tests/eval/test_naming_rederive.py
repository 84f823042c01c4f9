"""A snapshot result's naming outcome re-derives on first read.

No pickled ``SnapshotResult`` stores its naming records: a stored body,
or a worker's reply, reads ``naming`` again from the world's naming
plan and the ITDK's addresses, under a ``snapshot.renaming`` span.  The
re-derived outcome must pickle to the very bytes of the one the build
made, for every TINY set, and a result built in this process keeps the
outcome it built.
"""

import pickle

import pytest

from repro.cli import main
from repro.core.parallel import ParallelConfig
from repro.eval import section7
from repro.eval.context import ExperimentContext, Scale
from repro.eval.timeline import build_timeline
from repro.naming.assigner import NamingPlan
from repro.obs.trace import Tracer, load_trace
from repro.store import ArtifactStore
from repro.topology.world import WorldConfig, generate_world
from repro.traceroute.routing import RoutingModel

SEED = 2020


@pytest.fixture(scope="module")
def world():
    return generate_world(SEED, WorldConfig.tiny())


@pytest.fixture(scope="module")
def built(world):
    routing = RoutingModel(world.graph)
    plan = NamingPlan(world)
    sets = build_timeline(world, SEED, routing, include_pdb=False,
                          naming_plan=plan)
    return routing, plan, sets


def _spans(tracer, name):
    return [r for r in tracer.records if r["name"] == name]


def _reloaded(training_set, world, routing, plan):
    tracer = Tracer()
    again = pickle.loads(pickle.dumps(training_set))
    again.adopt(world, tracer, routing, plan)
    return again.snapshot, tracer


def test_built_results_keep_their_naming(built):
    _, _, sets = built
    assert len(sets) == 17
    for training_set in sets:
        assert "naming" in vars(training_set.snapshot), training_set.label


def test_every_tiny_set_rederives_its_pickled_bytes(world, built):
    routing, plan, sets = built
    for training_set in sets:
        result, tracer = _reloaded(training_set, world, routing, plan)
        assert "naming" not in vars(result)
        naming = result.naming
        assert pickle.dumps(naming) \
            == pickle.dumps(training_set.snapshot.naming), training_set.label
        assert result.naming is naming
        renamings = _spans(tracer, "snapshot.renaming")
        assert [r["attrs"] for r in renamings] == [
            {"snapshot": training_set.label, "records": len(naming.records)}]
        assert not _spans(tracer, "naming.plan")


def test_without_a_plan_the_rederivation_builds_one(world, built):
    routing, _, sets = built
    result, tracer = _reloaded(sets[-1], world, routing, None)
    assert pickle.dumps(result.naming) \
        == pickle.dumps(sets[-1].snapshot.naming)
    renaming, = _spans(tracer, "snapshot.renaming")
    plan, = _spans(tracer, "naming.plan")
    assert plan["parent"] == renaming["id"]


def test_worker_results_rederive_serial_naming(world, built):
    """A worker's reply pickles without traces or naming; the
    coordinator's result derives both equal to a serial build's."""
    routing, plan, sets = built
    labels = ["2017-02", "2020-01"]
    parallel = build_timeline(
        world, SEED, routing, itdk_labels=labels, include_pdb=False,
        parallel=ParallelConfig(workers=2, backend="process", chunk_size=1),
        naming_plan=plan)
    serial = {t.label: t.snapshot for t in sets}
    for training_set in parallel:
        result = training_set.snapshot
        assert result._naming_plan is plan
        assert "naming" not in vars(result)
        assert "traces" not in vars(result)
        want = serial[training_set.label]
        assert pickle.dumps(result.naming) == pickle.dumps(want.naming)
        assert result.traces == want.traces


def test_section7_from_a_stored_body_equals_storeless(tmp_path):
    """Section 7 reads the newest set's full naming outcome, which a
    stored timeline re-derives."""
    def context(store=None, tracer=None):
        kwargs = {"tracer": tracer} if tracer is not None else {}
        return ExperimentContext(SEED, Scale.TINY, itdk_labels=["2020-01"],
                                 include_pdb=False, store=store, **kwargs)

    storeless = section7.render(section7.run(context()))
    context(ArtifactStore(tmp_path)).learn_timeline()
    tracer = Tracer()
    warm = context(ArtifactStore(tmp_path), tracer)
    assert section7.render(section7.run(warm)) == storeless
    tracer.close()
    assert [r["attrs"]["snapshot"]
            for r in _spans(tracer, "snapshot.renaming")] == ["2020-01"]


def test_a_warm_context_builds_at_most_one_plan(tmp_path, capsys):
    """A warm context hands its loaded sets a provider of its own plan:
    the first re-derivation builds it, and every later reader (another
    re-derivation, ``sensitivity``) shares it.  A relearn reads no
    naming, so it builds none."""
    store = str(tmp_path / "store")
    trace = tmp_path / "warm-all.jsonl"
    assert main(["all", "--scale", "tiny", "--cache-dir", store]) == 0
    assert main(["all", "--scale", "tiny", "--cache-dir", store,
                 "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    records = load_trace(str(trace))
    assert len([r for r in records if r["name"] == "naming.plan"]) == 1
    assert [r for r in records if r["name"] == "snapshot.renaming"]

    tracer = Tracer()
    ExperimentContext(SEED, Scale.TINY, store=ArtifactStore(store),
                      tracer=tracer).learn_timeline()
    assert not _spans(tracer, "naming.plan")
