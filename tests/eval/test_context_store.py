"""ExperimentContext + ArtifactStore: warm-run reuse and invalidation."""

import pytest

from repro.core.hoiho import HoihoConfig
from repro.core.io import conventions_to_json, training_to_jsonl
from repro.eval.context import ExperimentContext, Scale
from repro.store import ArtifactStore, KIND_SUFFIX, KIND_TIMELINE, KIND_WORLD


LABELS = ["2020-01"]


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


def _context(store, **overrides):
    kwargs = dict(seed=13, scale=Scale.TINY, itdk_labels=list(LABELS),
                  store=store)
    kwargs.update(overrides)
    return ExperimentContext(**kwargs)


class TestWarmRuns:
    def test_warm_run_skips_regeneration(self, store, monkeypatch):
        cold = _context(store)
        cold_timeline = cold.timeline
        cold_learned = cold.learned("2020-01")
        # world, timeline, hoiho, plus one pack holding a suffix
        # artifact per suffix examined by the incremental layer
        assert store.stats.writes == 3 + 1
        assert store.info()["kinds"][KIND_SUFFIX]["entries"] \
            == cold_learned.suffixes_examined

        # A warm context must never call the generators again.
        import repro.eval.context as context_module
        monkeypatch.setattr(
            context_module, "generate_world",
            lambda *a, **k: pytest.fail("world regenerated on warm run"))
        monkeypatch.setattr(
            context_module, "build_timeline",
            lambda *a, **k: pytest.fail("timeline rebuilt on warm run"))

        warm = _context(store)
        warm_timeline = warm.timeline
        assert [t.label for t in warm_timeline] \
            == [t.label for t in cold_timeline]
        assert training_to_jsonl(warm_timeline[0].items) \
            == training_to_jsonl(cold_timeline[0].items)
        assert conventions_to_json(warm.learned("2020-01")) \
            == conventions_to_json(cold_learned)

    def test_warm_learned_skips_timeline(self, store):
        cold_learned = _context(store).learned("2020-01")
        warm = _context(store)
        assert warm.learned("2020-01") == cold_learned
        assert warm._timeline is None

    def test_warm_timeline_reattaches_world(self, store):
        _context(store).timeline
        warm = _context(store)
        for training_set in warm.timeline:
            if training_set.snapshot is not None:
                assert training_set.snapshot.world is warm.world

    def test_learn_timeline_uses_store(self, store):
        cold = _context(store)
        cold.learn_timeline()
        warm = _context(store)
        warm._timeline = cold.timeline  # isolate the learning lookups
        results = warm.learn_timeline()
        assert sorted(results) == sorted(t.label for t in cold.timeline)
        assert store.stats.hits >= len(results)


class TestInvalidation:
    def test_stale_fingerprint_on_config_change(self, store):
        cold = _context(store)
        cold.timeline
        assert store.contains(KIND_WORLD, cold._world_payload())
        assert store.contains(KIND_TIMELINE, cold._timeline_payload())

        # Seed and scale feed the world fingerprint...
        for changed in (_context(store, seed=14),
                        _context(store, scale=Scale.SMALL)):
            assert not store.contains(KIND_WORLD, changed._world_payload())
        # ...and every timeline knob feeds the timeline fingerprint.
        for changed in (_context(store, seed=14),
                        _context(store, scale=Scale.SMALL),
                        _context(store, itdk_labels=["2019-01"]),
                        _context(store, include_pdb=False)):
            assert not store.contains(KIND_TIMELINE,
                                      changed._timeline_payload())
        # Label restriction alone reuses the world artifact.
        assert store.contains(
            KIND_WORLD, _context(store, itdk_labels=["2019-01"])
            ._world_payload())

    def test_hoiho_config_change_relearns(self, store):
        cold = _context(store)
        cold.learned("2020-01")
        changed = _context(store, hoiho_config=HoihoConfig(min_tp=4))
        assert not store.contains(
            "hoiho", changed._hoiho_payload("2020-01"))

    def test_no_store_still_works(self):
        context = ExperimentContext(seed=13, scale=Scale.TINY,
                                    itdk_labels=list(LABELS))
        assert context.store is None
        assert context.timeline
