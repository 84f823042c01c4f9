"""The fixed workloads of :mod:`repro.bench`, and the live bounds on
the incremental and observability kernels.

The serve and shadow bounds are smoke tests
(``tests/integration/test_serve_bounds.py``).
"""

import pytest

import repro.bench as bench
from repro.core.hoiho import HoihoConfig, learn_suffix
from repro.core.matchcache import MatchCache
from repro.core.regex_model import Regex
from tests.reference_scoring import evaluate_nc, evaluate_regex, \
    learn_with_reference


class TestWorkload:
    @pytest.mark.parametrize("cached", [True, False])
    def test_learner_finds_every_annotated_item(self, cached):
        """One suffix learned with the match-vector cache, and with the
        direct reference loop scoring in its place."""
        dataset = bench.bench_dataset()
        convention = learn_suffix(dataset, HoihoConfig()) if cached \
            else learn_with_reference(dataset, HoihoConfig())[0]
        assert convention is not None
        assert convention.score.tp == 60

    def test_one_regex_scores_every_annotated_item(self):
        regex = Regex.raw(r"^as(\d+)-10ge-pop\d+\.example\.net$")
        assert evaluate_regex(regex, bench.bench_dataset()).tp == 60
        assert MatchCache(bench.bench_dataset()).score_regex(regex).tp == 60

    def test_regex_set_scores_alike_on_every_path(self):
        """The reference loop per item, a cold cache and a warm one."""
        dataset = bench.bench_dataset()
        regexes = bench.bench_regex_set()
        assert evaluate_nc(regexes, dataset).tp == 60
        cache = MatchCache(dataset)
        assert cache.score_nc(regexes).tp == 60
        assert cache.score_nc(regexes).tp == 60


class TestServeSection:
    def test_serve_workload_shape(self):
        hostnames = bench.serve_hostnames(n=200)
        assert len(hostnames) == 200
        result = bench.serve_conventions(n_suffixes=4)
        assert len(result.conventions) == 4
        # Every convention key must be a registered domain so the
        # linear PSL path can reach it.
        from repro.psl import default_psl
        psl = default_psl()
        for suffix in result.conventions:
            assert psl.registered_domain(suffix) == suffix

    def test_zipf_workload_is_deterministic_and_skewed(self):
        first = bench.zipf_hostnames(n=2000, universe=500)
        second = bench.zipf_hostnames(n=2000, universe=500)
        assert first == second                      # fixed seed
        distinct = len(set(first))
        assert distinct < len(first) / 2            # heavy repeats
        assert distinct > 10                        # but a real stream

    def test_bulk_workers_caps_at_four(self, monkeypatch):
        monkeypatch.setattr(bench, "default_workers", lambda: 16)
        assert bench.bulk_workers() == 4
        monkeypatch.setattr(bench, "default_workers", lambda: 1)
        assert bench.bulk_workers() == 1


class TestObsSection:
    def test_obs_workload_is_genuinely_multi_suffix(self):
        from repro.core.types import group_by_suffix
        groups = group_by_suffix(bench.obs_world_items(n_suffixes=4))
        assert len(groups) == 4

    def test_run_obs_bench_meets_budget(self):
        # The real measurement, small rounds: tracing-disabled
        # instrumentation costs an untraced run under 2% of its wall.
        section = bench.run_obs_bench(rounds=1)
        assert section["overhead_fraction"] < 0.02
        assert section["spans_per_run"] > 16


class TestIncrementalSection:
    def test_incremental_training_sets_shape(self):
        snap0, snap1, n_mutated = bench.incremental_training_sets(
            n_suffixes=20, per_suffix=8, perturb_fraction=0.05)
        assert n_mutated == 1
        assert len(snap0.items) == len(snap1.items)
        assert snap0.label != snap1.label
        # exactly n_mutated suffixes differ between the snapshots
        differing = {".".join(i0.hostname.split(".")[-2:])
                     for i0, i1 in zip(snap0.items, snap1.items)
                     if i0 != i1}
        assert len(differing) == n_mutated

    def test_run_incremental_bench_meets_floors(self):
        # The real measurement: the warm-repeat speedup, the perturbed
        # hit rate and byte-identical results must hold wherever the
        # tests run.  The warm-repeat ratio keeps each side's best of
        # three rounds, so one stall cannot decide it.
        section = bench.run_incremental_bench(rounds=3)
        assert section["parallel_workers"] >= 1
        assert section["warm_speedup"] >= 5.0
        assert section["identical"]
        hits, misses = section["hits"], section["misses"]
        assert hits + misses == 24
        assert hits / (hits + misses) >= 0.8


class TestShadowSection:
    def test_divergence_case_counts_partition_the_stream(self):
        primary, candidate, hostnames, expected = \
            bench.shadow_divergence_case(n=50)
        assert len(hostnames) == 50
        assert sum(expected.values()) == 50
        assert expected == {"agree": 30, "primary_only": 5,
                            "candidate_only": 5, "conflict": 10}
        assert "svc07-bench.org" in primary.conventions
        assert "svc07-bench.org" not in candidate.conventions
        assert "extra-bench.org" in candidate.conventions
        assert "extra-bench.org" not in primary.conventions

    def test_divergence_case_rejects_ragged_n(self):
        with pytest.raises(ValueError):
            bench.shadow_divergence_case(n=55)


class TestObsWindowSection:
    def test_run_obs_window_bench_meets_budget(self):
        # The real measurement, small rounds: the per-request access-log
        # enqueue plus the amortised window fold stays under 3% of the
        # serving hot path.
        section = bench.run_obs_window_bench(rounds=1)
        assert section["overhead_fraction"] < 0.03
        # The enqueue must beat the synchronous write it replaces.
        assert section["line_seconds"] < section["sync_line_seconds"]
        assert section["record_seconds"] > 0.0
        assert section["request_seconds"] > 0.0
