"""Unit tests for the match-vector evaluation cache, held to the
direct scoring loop of :mod:`tests.reference_scoring`."""

import pytest

from repro.core import evaluate
from repro.core.hoiho import HoihoConfig, learn_suffix, \
    learn_suffix_traced
from repro.core.matchcache import ComposedNC, MatchCache
from repro.core.phase1 import generate_base_regexes
from repro.core.phase3 import specialise_regex
from repro.core.phase4 import build_regex_sets
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset, TrainingItem
from tests.reference_scoring import evaluate_nc, evaluate_regex, \
    learn_with_reference, matched_indices


@pytest.fixture
def dataset():
    return SuffixDataset("x.com", [
        TrainingItem("as100.pop.x.com", 100),
        TrainingItem("as200.pop.x.com", 200),
        TrainingItem("as300.pop.x.com", 999),        # wrong training -> FP
        TrainingItem("lo0.cr1.x.com", 100),          # no apparent ASN
        TrainingItem("unmatched-as400.x.com", 400),  # FN for the regex
    ])


SPECIFIC = Regex.raw(r"^as(\d+)\.pop\.x\.com$")
RESCUE = Regex.raw(r"^.+-as(\d+)\.x\.com$")
NEVER = Regex.raw(r"^zz(\d+)\.x\.com$")


def _score_tuple(score, with_outcomes=False):
    fields = (score.tp, score.fp, score.fn, score.matches,
              score.distinct_asns)
    return fields + (tuple(score.outcomes),) if with_outcomes else fields


class TestEquivalence:
    @pytest.mark.parametrize("regexes", [
        (), (SPECIFIC,), (RESCUE,), (NEVER,),
        (SPECIFIC, RESCUE), (RESCUE, SPECIFIC),
        (NEVER, SPECIFIC, RESCUE),
    ])
    def test_score_nc_matches_reference(self, dataset, regexes):
        cache = MatchCache(dataset)
        reference = evaluate_nc(regexes, dataset, keep_outcomes=True)
        cached = cache.score_nc(regexes, keep_outcomes=True)
        assert _score_tuple(cached, True) == _score_tuple(reference, True)

    def test_evaluate_helpers_match_reference(self, dataset):
        cache = MatchCache(dataset)
        assert _score_tuple(cache.score_regex(SPECIFIC)) \
            == _score_tuple(evaluate_regex(SPECIFIC, dataset))
        assert _score_tuple(
            evaluate.evaluate_nc((SPECIFIC, RESCUE), dataset,
                                 keep_outcomes=True), True) \
            == _score_tuple(evaluate_nc((SPECIFIC, RESCUE), dataset,
                                        keep_outcomes=True), True)
        assert [index for index, hit
                in enumerate(cache.vector(SPECIFIC).hits) if hit] \
            == matched_indices(SPECIFIC, dataset)

    def test_composed_extend_matches_full_evaluation(self, dataset):
        cache = MatchCache(dataset)
        composed = ComposedNC.empty(cache)
        grown = ()
        for regex in (NEVER, SPECIFIC, RESCUE):
            composed = composed.extend(regex)
            grown = grown + (regex,)
            reference = evaluate_nc(grown, dataset)
            assert _score_tuple(composed.score) == _score_tuple(reference)

    def test_empty_composition_counts_fns(self, dataset):
        cache = MatchCache(dataset)
        empty = ComposedNC.empty(cache)
        reference = evaluate_nc((), dataset)
        assert empty.score.fn == reference.fn == 3
        assert empty.score.matches == 0


class TestCaching:
    def test_repeat_scoring_is_served_from_cache(self, dataset):
        cache = MatchCache(dataset)
        first = cache.score_regex(SPECIFIC)
        again = cache.score_regex(SPECIFIC)
        assert again is first
        assert cache.stats.vectors_built == 1
        assert cache.stats.vector_hits == 1
        assert cache.stats.match_calls == len(dataset)

    def test_hit_rate(self, dataset):
        cache = MatchCache(dataset)
        for _ in range(4):
            cache.score_nc((SPECIFIC, RESCUE))
        assert cache.stats.vectors_built == 2
        assert cache.stats.vector_hits == 6
        assert cache.stats.hit_rate == pytest.approx(6 / 8)

    def test_keep_outcomes_not_cached_as_plain_score(self, dataset):
        cache = MatchCache(dataset)
        detailed = cache.score_regex(SPECIFIC, keep_outcomes=True)
        assert len(detailed.outcomes) == len(dataset)
        plain = cache.score_regex(SPECIFIC)
        assert plain.outcomes == []

    def test_learner_attaches_outcomes_via_cache(self):
        items = [TrainingItem("as%d.z.org" % asn, asn)
                 for asn in (3356, 1299, 174, 2914, 6453)]
        dataset = SuffixDataset("z.org", items)
        convention = learn_suffix(dataset)
        assert len(convention.score.outcomes) == len(dataset)
        assert convention.score.outcomes == evaluate_nc(
            convention.regexes, dataset, keep_outcomes=True).outcomes

    def test_phase3_skips_never_matching_regex(self, dataset):
        from repro.core.regex_model import Cap, Exclude, Lit
        regex = Regex([Lit("zz"), Cap(), Lit("."),
                       Exclude(frozenset("."))], suffix="x.com")
        cache = MatchCache(dataset)
        assert specialise_regex(regex, cache) is None
        # The decision came from the cached vector, not an instrumented
        # re-match.
        assert cache.stats.vectors_built == 1


class TestNoRedundantMatching:
    def test_phase4_performs_zero_matches_on_scored_regexes(
            self, monkeypatch):
        """Phase 4 must build sets purely from cached vectors."""
        asns = [1000 + 7 * i for i in range(12)]
        items = [TrainingItem("as%d-lon%d.x.com" % (asn, i % 3), asn)
                 for i, asn in enumerate(asns)]
        items += [TrainingItem("pop%d.cust.as%d.x.com" % (i % 3, asn + 1),
                               asn + 1) for i, asn in enumerate(asns)]
        dataset = SuffixDataset("x.com", items)
        cache = MatchCache(dataset)
        scored = {}
        for regex in generate_base_regexes(dataset):
            score = cache.score_regex(regex)
            if score.tp > 0:
                scored[regex] = score
        assert len(scored) > 1

        calls = {"extract": 0, "match": 0}
        original_extract = Regex.extract
        def counting_extract(self, hostname):
            calls["extract"] += 1
            return original_extract(self, hostname)
        monkeypatch.setattr(Regex, "extract", counting_extract)
        before_match_calls = cache.stats.match_calls

        conventions = build_regex_sets(scored, cache)

        assert calls["extract"] == 0
        assert cache.stats.match_calls == before_match_calls
        assert conventions
        # And the composed scores agree with ground-truth evaluation.
        monkeypatch.setattr(Regex, "extract", original_extract)
        for regexes, score in conventions[:5]:
            assert _score_tuple(score) \
                == _score_tuple(evaluate_nc(regexes, dataset))


class TestLearnerIntegration:
    def test_cached_and_uncached_learn_identical(self):
        asns = [64500 + 11 * i for i in range(15)]
        items = [TrainingItem("as%d-10ge-fra%d.y.net" % (asn, i % 4), asn)
                 for i, asn in enumerate(asns)]
        items += [TrainingItem("lo0.cr%d.y.net" % i, 64500)
                  for i in range(5)]
        dataset = SuffixDataset("y.net", items)
        cached = learn_suffix(dataset, HoihoConfig())
        uncached, _ = learn_with_reference(dataset, HoihoConfig())
        assert cached is not None and uncached is not None
        assert cached.patterns() == uncached.patterns()
        assert repr(cached.score) == repr(uncached.score)
        assert cached.nc_class is uncached.nc_class

    def test_trace_records_cache_stats(self):
        items = [TrainingItem("as%d.z.org" % asn, asn)
                 for asn in (3356, 1299, 174, 2914, 6453)]
        _, trace = learn_suffix_traced(SuffixDataset("z.org", items))
        assert trace.cache_stats is not None
        assert trace.cache_stats.vectors_built > 0
        assert trace.cache_stats.match_calls \
            == trace.cache_stats.vectors_built * len(items)

    def test_one_cached_learn_does_pinned_work(self):
        """The cache's work on one 80-hostname suffix is deterministic:
        8 vectors each matched over every item, then served 38 times
        and composed 33 times."""
        from repro.bench import bench_dataset
        _, trace = learn_suffix_traced(bench_dataset(), HoihoConfig())
        stats = trace.cache_stats
        assert (stats.vectors_built, stats.vector_hits, stats.match_calls,
                stats.compositions) == (8, 38, 640, 33)
