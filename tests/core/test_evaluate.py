"""Unit tests for NC scoring.

Each count is asserted of the reference loop
(:mod:`tests.reference_scoring`) and of the learner's scorer, the match
cache behind :func:`repro.core.evaluate.evaluate_nc`.
"""

import pytest

from repro.core import evaluate
from repro.core.matchcache import MatchCache
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset, TrainingItem
from tests import reference_scoring


def _evaluate_regex_both(regex, dataset, keep_outcomes=False):
    return [reference_scoring.evaluate_regex(regex, dataset,
                                             keep_outcomes=keep_outcomes),
            MatchCache(dataset).score_regex(regex,
                                            keep_outcomes=keep_outcomes)]


def _evaluate_nc_both(regexes, dataset):
    return [reference_scoring.evaluate_nc(regexes, dataset),
            evaluate.evaluate_nc(regexes, dataset)]


@pytest.fixture
def dataset():
    return SuffixDataset("x.com", [
        TrainingItem("as100.pop.x.com", 100),
        TrainingItem("as200.pop.x.com", 200),
        TrainingItem("as300.pop.x.com", 999),       # wrong training -> FP
        TrainingItem("lo0.cr1.x.com", 100),         # no apparent ASN
        TrainingItem("unmatched-as400.x.com", 400),  # FN for the regex
    ])


class TestScoring:
    def test_counts(self, dataset):
        regex = Regex.raw(r"^as(\d+)\.pop\.x\.com$")
        for score in _evaluate_regex_both(regex, dataset):
            assert score.tp == 2
            assert score.fp == 1
            assert score.fn == 1
            assert score.matches == 3
            assert score.atp == 0
            assert score.ppv == pytest.approx(2 / 3)

    def test_distinct(self, dataset):
        regex = Regex.raw(r"^as(\d+)\.pop\.x\.com$")
        for score in _evaluate_regex_both(regex, dataset):
            assert score.distinct == 2
            assert score.distinct_asns == {100, 200}

    def test_keep_outcomes(self, dataset):
        regex = Regex.raw(r"^as(\d+)\.pop\.x\.com$")
        reference, cached = _evaluate_regex_both(regex, dataset,
                                                 keep_outcomes=True)
        assert len(reference.outcomes) == len(dataset)
        assert cached.outcomes == reference.outcomes

    def test_empty_nc(self, dataset):
        for score in _evaluate_nc_both((), dataset):
            assert score.tp == 0
            assert score.matches == 0
            assert score.fn == 3   # every apparent-ASN hostname unmatched

    def test_ppv_zero_when_no_extractions(self, dataset):
        for score in _evaluate_nc_both((), dataset):
            assert score.ppv == 0.0

    def test_set_ordering_first_match(self, dataset):
        specific = Regex.raw(r"^as(\d+)\.pop\.x\.com$")
        rescue = Regex.raw(r"^.+-as(\d+)\.x\.com$")
        for score in _evaluate_nc_both((specific, rescue), dataset):
            assert score.tp == 3
            assert score.fn == 0

    def test_rank_key_orders_by_atp(self):
        high = evaluate.NCScore(tp=5)
        low = evaluate.NCScore(tp=5, fp=3)
        assert high.rank_key() < low.rank_key()

    def test_matched_indices(self, dataset):
        regex = Regex.raw(r"^as(\d+)\.pop\.x\.com$")
        vector = MatchCache(dataset).vector(regex)
        assert reference_scoring.matched_indices(regex, dataset) \
            == [index for index, hit in enumerate(vector.hits)
                if hit is not None] == [0, 1, 2]
