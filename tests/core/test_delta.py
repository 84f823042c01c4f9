"""Unit tests for the delta planner and the per-suffix cache layer."""

import dataclasses

import pytest

import repro.core.delta as delta_module
from repro.core.delta import (
    LabelPlan,
    TimelinePlan,
    dedupe_plans,
    diff_fingerprints,
    learn_artifacts,
    plan_datasets,
    plan_timeline,
    resolve_plans,
)
from repro.core.hoiho import (
    Hoiho,
    HoihoConfig,
    SuffixArtifact,
    _learn_artifact_worker,
    precheck,
    precheck_artifact,
    suffix_cache_payload,
    suffix_fingerprint,
)
from repro.core.matchcache import CacheStats
from repro.core.parallel import ParallelConfig
from repro.core.types import SuffixDataset, TrainingItem
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.store import KIND_SUFFIX, ArtifactStore
from tests.reference_learner import learn_from_scratch

# Small enough to learn in milliseconds, big enough to pass the gates.
FAST = HoihoConfig(max_candidates=60, generation_sample=20, eval_pool=20,
                   set_pool=6, n_seeds=2)


def _dataset(suffix="alpha-inc.org", base=100, n=12):
    items = [TrainingItem("as%d.r%d.%s" % (base + i % 3, i, suffix),
                          base + i % 3) for i in range(n)]
    return SuffixDataset(suffix, items)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestSuffixFingerprint:
    def test_deterministic(self):
        assert suffix_fingerprint(_dataset(), FAST) \
            == suffix_fingerprint(_dataset(), FAST)

    def test_item_change_moves_fingerprint(self):
        base = suffix_fingerprint(_dataset(), FAST)
        assert suffix_fingerprint(_dataset(n=13), FAST) != base
        assert suffix_fingerprint(_dataset(base=101), FAST) != base

    def test_every_config_field_moves_fingerprint(self):
        base = suffix_fingerprint(_dataset(), FAST)
        for field in dataclasses.fields(FAST):
            value = getattr(FAST, field.name)
            if isinstance(value, bool):
                changed = dataclasses.replace(FAST,
                                              **{field.name: not value})
            elif isinstance(value, int):
                changed = dataclasses.replace(FAST,
                                              **{field.name: value + 1})
            elif isinstance(value, float):
                changed = dataclasses.replace(
                    FAST, **{field.name: value + 0.125})
            else:
                continue
            assert suffix_fingerprint(_dataset(), changed) != base, \
                field.name

    def test_address_participates(self):
        with_addr = SuffixDataset("x.com", [
            TrainingItem("as1.x.com", 1, address="10.0.0.1")])
        without = SuffixDataset("x.com", [TrainingItem("as1.x.com", 1)])
        assert suffix_fingerprint(with_addr, FAST) \
            != suffix_fingerprint(without, FAST)


class TestPlanning:
    def test_plans_sorted_by_suffix(self):
        datasets = [_dataset("zz-inc.org"), _dataset("aa-inc.org")]
        plans = plan_datasets(datasets, FAST)
        assert [p.suffix for p in plans] == ["aa-inc.org", "zz-inc.org"]
        assert all(p.fingerprint == suffix_fingerprint(p.dataset, FAST)
                   for p in plans)

    def test_diff_fingerprints(self):
        previous = {"a.org": "f1", "b.org": "f2", "c.org": "f3"}
        current = {"a.org": "f1", "b.org": "CHANGED", "d.org": "f4"}
        summary = diff_fingerprints(previous, current)
        assert summary.unchanged == ["a.org"]
        assert summary.changed == ["b.org"]
        assert summary.removed == ["c.org"]
        assert summary.added == ["d.org"]
        assert summary.relearn_fraction == pytest.approx(2 / 3)

    def test_dedupe_groups_by_fingerprint(self):
        plans = plan_datasets([_dataset()], FAST, label="s0") \
            + plan_datasets([_dataset()], FAST, label="s1") \
            + plan_datasets([_dataset(base=999)], FAST, label="s1")
        groups = dedupe_plans(plans)
        assert [len(g) for g in groups] == [2, 1]
        assert {p.label for p in groups[0]} == {"s0", "s1"}

    def test_plan_timeline_deltas(self):
        class Snap:
            def __init__(self, label, items):
                self.label, self.items = label, items

        shared = _dataset("keep-inc.org").items
        s0 = Snap("s0", shared + _dataset("old-inc.org", base=200).items)
        s1 = Snap("s1", shared + _dataset("old-inc.org", base=300).items)
        plan = plan_timeline([s0, s1], FAST)
        assert len(plan.deltas) == 1
        delta = plan.deltas[0]
        assert delta.unchanged == ["keep-inc.org"]
        assert delta.changed == ["old-inc.org"]
        attrs = plan.attrs()
        assert attrs["suffix_plans"] == 4
        assert attrs["suffix_unique"] == 3
        assert attrs["delta_unchanged"] == 1


class TestResolve:
    def test_miss_then_hit_with_counters(self, store):
        plans = plan_datasets([_dataset()], FAST)
        metrics = MetricsRegistry()
        hits, misses = resolve_plans(store, plans, metrics=metrics)
        assert hits == [] and len(misses) == 1
        store.put(KIND_SUFFIX, suffix_cache_payload(plans[0].dataset, FAST),
                  SuffixArtifact(suffix=plans[0].suffix, convention=None))
        hits, misses = resolve_plans(store, plans, metrics=metrics)
        assert len(hits) == 1 and misses == []
        counters = metrics.snapshot()["counters"]
        assert counters["suffix_cache_hits"] == 1
        assert counters["suffix_cache_misses"] == 1

    def test_mistyped_entry_reads_as_miss(self, store):
        plans = plan_datasets([_dataset()], FAST)
        store.put(KIND_SUFFIX, suffix_cache_payload(plans[0].dataset, FAST),
                  {"not": "an artifact"})
        hits, misses = resolve_plans(store, plans)
        assert hits == [] and len(misses) == 1


class TestHoihoSuffixCache:
    def test_warm_run_dispatches_nothing(self, store, monkeypatch):
        items = _dataset(n=16).items
        cold = Hoiho(FAST, store=store).run(items)
        assert store.stats.writes == 1

        import repro.core.hoiho as hoiho_module
        monkeypatch.setattr(
            hoiho_module, "_learn_artifact_worker",
            lambda *a, **k: pytest.fail("re-learned on warm cache"))
        warm = Hoiho(FAST, store=store).run(items)
        assert warm == cold
        assert store.stats.writes == 1  # nothing new persisted

    def test_misses_write_one_pack(self, tmp_path):
        # Every learned suffix of a run lands in one pack, written
        # under one store.put span, with no .json sidecar.
        tracer = Tracer()
        store = ArtifactStore(tmp_path / "cache", tracer=tracer)
        items = (_dataset("alpha-inc.org", n=16).items
                 + _dataset("beta-net.com", base=200, n=16).items)
        Hoiho(FAST, store=store, tracer=tracer).run(items)
        puts = [r["attrs"] for r in tracer.records
                if r["name"] == "store.put"]
        assert [(a["kind"], a["entries"]) for a in puts] \
            == [(KIND_SUFFIX, 2)]
        assert store.stats.writes == 1
        assert list(store.root.glob("suffixes/*.json")) == []
        assert store.info()["kinds"][KIND_SUFFIX]["entries"] == 2

    def test_matches_uncached_result(self, store):
        items = _dataset(n=16).items
        assert Hoiho(FAST, store=store).run(items) \
            == learn_from_scratch(items, FAST)

    def test_negative_result_is_cached(self, store):
        # Two hostnames fail the gates; the rejection must be cached
        # too, or unlearnable suffixes would re-run every phase on
        # every snapshot.
        items = [TrainingItem("as1.x.com", 1), TrainingItem("as2.x.com", 2)]
        result = Hoiho(FAST, store=store).run(items)
        assert result.conventions == {}
        [path] = store.entries(KIND_SUFFIX)
        key = suffix_fingerprint(SuffixDataset("x.com", items), FAST)
        artifact = store.get(KIND_SUFFIX, None, key=key)
        assert isinstance(artifact, SuffixArtifact)
        assert artifact.convention is None
        assert artifact.rejected_reason

    def test_metrics_counters(self, store):
        items = _dataset(n=16).items
        metrics = MetricsRegistry()
        Hoiho(FAST, store=store, metrics=metrics).run(items)
        Hoiho(FAST, store=store, metrics=metrics).run(items)
        counters = metrics.snapshot()["counters"]
        assert counters["suffix_cache_misses"] == 1
        assert counters["suffix_cache_hits"] == 1


#: One dataset per cheap rejection, keyed by the reason it gets.
REJECTED = {
    "too few hostnames": SuffixDataset("few.com", [
        TrainingItem("as1.few.com", 1), TrainingItem("as2.few.com", 2)]),
    "single training ASN": SuffixDataset("one.com", [
        TrainingItem("as100.r%d.one.com" % i, 100) for i in range(6)]),
    "not enough apparent ASNs": SuffixDataset("names.com", [
        TrainingItem("rtr%d.names.com" % i, 100 + i) for i in range(6)]),
}


class TestPrecheckGate:
    """The planner rejects what the learner's prechecks reject, with
    the artifact the learner would have returned."""

    @pytest.mark.parametrize("reason", sorted(REJECTED))
    def test_planner_artifact_equals_the_learners(self, reason):
        dataset = REJECTED[reason]
        assert precheck(dataset, FAST) == reason
        [plan] = plan_datasets([dataset], FAST)
        _, artifacts = learn_artifacts(
            None, lambda: TimelinePlan([LabelPlan("", [plan])], []),
            FAST, ParallelConfig.serial(), None)
        built = artifacts[plan.fingerprint]
        assert built == precheck_artifact(dataset, reason) \
            == _learn_artifact_worker(FAST, dataset)
        assert built.rejected_reason == reason
        assert built.cache_stats == CacheStats().as_dict()

    def test_a_learnable_dataset_passes(self):
        assert precheck(_dataset(), FAST) is None

    def _items(self):
        items = [item for dataset in REJECTED.values()
                 for item in dataset.items]
        return items + _dataset(n=16).items

    def test_rejections_are_not_dispatched(self, monkeypatch):
        learned = []
        real = delta_module._learn_artifact_worker

        def worker(config, dataset, **kwargs):
            learned.append(dataset.suffix)
            return real(config, dataset, **kwargs)
        monkeypatch.setattr(delta_module, "_learn_artifact_worker", worker)
        tracer = Tracer()
        result = Hoiho(FAST, tracer=tracer).run(self._items())
        assert learned == ["alpha-inc.org"]
        assert sorted(result.conventions) == ["alpha-inc.org"]
        assert result.suffixes_examined == 4
        [plan] = [r["attrs"] for r in tracer.records
                  if r["name"] == "learn.plan"]
        assert {key: value for key, value in plan.items()
                if key.startswith("rejected.")} \
            == {"rejected." + reason: 1 for reason in REJECTED}
        assert [r["attrs"]["suffix"] for r in tracer.records
                if r["name"] == "learn.suffix"] == ["alpha-inc.org"]

    def test_storeless_and_stored_runs_agree(self, store):
        items = self._items()
        storeless = Hoiho(FAST).run(items)
        assert Hoiho(FAST, store=store).run(items) == storeless
        # Every rejection is in the pack, as the learner would give it.
        for reason, dataset in REJECTED.items():
            key = suffix_fingerprint(dataset, FAST)
            assert store.get(KIND_SUFFIX, None, key=key) \
                == _learn_artifact_worker(FAST, dataset)
        assert store.info()["kinds"][KIND_SUFFIX]["entries"] == 4
        assert Hoiho(FAST, store=store).run(items) == storeless
