"""Delta-driven incremental timeline learning through the context."""

import pytest

from repro.core.hoiho import HoihoConfig
from repro.core.io import conventions_to_json
from repro.core.types import TrainingItem
from repro.eval.context import ExperimentContext, Scale
from repro.eval.timeline import TrainingSet
from repro.obs.trace import Tracer
from repro.store import ArtifactStore, KIND_SUFFIX
from tests.reference_learner import learn_from_scratch

FAST = HoihoConfig(max_candidates=60, generation_sample=20, eval_pool=20,
                   set_pool=6, n_seeds=2)


def _snapshot(label, n_suffixes=5, mutated=(), per_suffix=12):
    """A synthetic training set; suffixes in ``mutated`` shift ASNs."""
    items = []
    for index in range(n_suffixes):
        suffix = "ctx%02d-inc.org" % index
        base = 500 + 31 * index + (7 if index in mutated else 0)
        for i in range(per_suffix):
            items.append(TrainingItem(
                "as%d.r%d.%s" % (base + i % 3, i, suffix), base + i % 3))
    return TrainingSet(label=label, kind="itdk", method="rtaa",
                       year=2020.0, items=items)


def _context(store, sets, **overrides):
    kwargs = dict(seed=13, scale=Scale.TINY, hoiho_config=FAST,
                  store=store)
    kwargs.update(overrides)
    context = ExperimentContext(**kwargs)
    context._timeline = list(sets)
    return context


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestIncrementalTimeline:
    def test_matches_from_scratch(self, store):
        sets = [_snapshot("s0"), _snapshot("s1", mutated={0, 2})]
        incremental = _context(store, sets).learn_timeline()
        storeless = _context(None, sets).learn_timeline()
        assert sorted(incremental) == sorted(storeless) == ["s0", "s1"]
        for training_set in sets:
            scratch = learn_from_scratch(training_set.items, FAST)
            for learned in (incremental, storeless):
                assert learned[training_set.label] == scratch
                assert conventions_to_json(learned[training_set.label]) \
                    == conventions_to_json(scratch)

    def test_unchanged_suffixes_learn_once_across_labels(self, store):
        # s0 and s1 share 3 of 5 suffixes byte-for-byte; the shared
        # training problems must dispatch exactly once (intra-run
        # dedup), leaving 5 + 2 unique artifacts.
        sets = [_snapshot("s0"), _snapshot("s1", mutated={0, 2})]
        context = _context(store, sets)
        context.learn_timeline()
        counters = context.metrics.snapshot()["counters"]
        assert counters["suffix_cache_misses"] == 10  # 5 per label
        assert store.info()["kinds"][KIND_SUFFIX]["entries"] == 7  # 5 + 2

    def test_perturbed_label_reuses_unchanged_suffixes(self, store):
        _context(store, [_snapshot("s0")]).learn_timeline()
        # A new snapshot arrives: 1 of 5 suffixes changed.
        perturbed = _context(store, [_snapshot("s1", mutated={3})])
        perturbed.learn_timeline()
        counters = perturbed.metrics.snapshot()["counters"]
        assert counters["suffix_cache_hits"] == 4
        assert counters["suffix_cache_misses"] == 1

    def test_cross_context_shared_label_hits(self, store):
        # Context B's timeline includes A's label; even though B's
        # whole-result key for its own new label misses, every suffix
        # shared with A resolves from the suffix cache.
        a = _context(store, [_snapshot("2020-01")])
        learned_a = a.learn_timeline()
        b = _context(store, [_snapshot("2019-01", mutated={1}),
                             _snapshot("2020-01")])
        learned_b = b.learn_timeline()
        assert learned_b["2020-01"] == learned_a["2020-01"]
        counters = b.metrics.snapshot()["counters"]
        # 2020-01 is served whole-result; 2019-01 plans 5 suffixes of
        # which only the mutated one misses.
        assert counters["suffix_cache_hits"] == 4
        assert counters["suffix_cache_misses"] == 1

    def test_span_attrs_record_cache_traffic(self, store, tmp_path):
        tracer = Tracer(path=str(tmp_path / "trace.jsonl"))
        context = _context(store, [_snapshot("s0")], tracer=tracer)
        context.learn_timeline()
        tracer.close()
        learn = [r for r in tracer.export()
                 if r.get("name") == "stage.learn"]
        assert learn
        attrs = learn[0]["attrs"]
        assert attrs["suffix_cache_misses"] == 5
        assert attrs["suffix_cache_hits"] == 0
        assert attrs["suffix_plans"] == 5

    def test_config_change_invalidates_every_suffix(self, store):
        _context(store, [_snapshot("s0")]).learn_timeline()
        changed = _context(store, [_snapshot("s0")],
                           hoiho_config=HoihoConfig(max_candidates=61,
                                                    generation_sample=20,
                                                    eval_pool=20,
                                                    set_pool=6, n_seeds=2))
        changed.learn_timeline()
        counters = changed.metrics.snapshot()["counters"]
        assert counters.get("suffix_cache_hits", 0) == 0
        assert counters["suffix_cache_misses"] == 5


class TestStorelessTimeline:
    def test_identical_suffix_learns_once(self):
        # s0 and s1 share 3 of 5 suffixes byte-for-byte: without a
        # store, the shared training problems still learn once.
        sets = [_snapshot("s0"), _snapshot("s1", mutated={0, 2})]
        tracer = Tracer()
        context = _context(None, sets, tracer=tracer)
        context.learn_timeline()
        tracer.close()
        [learn] = [r for r in tracer.records if r["name"] == "stage.learn"]
        attrs = learn["attrs"]
        suffix_spans = [r for r in tracer.records
                        if r["name"] == "learn.suffix"]
        assert attrs["suffix_plans"] == 10
        assert len(suffix_spans) == attrs["suffix_unique"] == 7
        assert attrs["delta_unchanged"] == 3
        assert attrs["delta_changed"] == 2
        # No store: no cache traffic to report.
        assert "suffix_cache_hits" not in attrs
        assert "cached" not in attrs
