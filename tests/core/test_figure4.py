"""End-to-end reproduction of the paper's figure 4 worked example.

The learner, run on the sixteen Equinix hostnames, must reproduce the
paper's staged results: the phase-1 base regexes and their scores, the
phase-2 merge, the phase-3 character-class embedding, and the final
NC #7 with ATP 8.
"""

import pytest

from repro.core.hoiho import learn_suffix
from repro.core.matchcache import MatchCache
from repro.core.regex_model import Regex
from repro.eval.appendix_a import figure4_dataset
from tests.reference_scoring import evaluate_nc


def _scores(regexes, dataset):
    """The set's score by the reference loop and by the match cache."""
    return [evaluate_nc(regexes, dataset),
            MatchCache(dataset).score_nc(regexes)]


@pytest.fixture(scope="module")
def dataset():
    return figure4_dataset()


class TestPaperScores:
    """The per-regex scores printed in figure 4."""

    def test_regex1(self, dataset):
        # ^(\d+)\.[^\.]+\.equinix\.com$: TP a,b,c; FP n,o; 7 FNs -> -7...
        # the paper counts ATP -7 with FN d,e,f,g,h,i,j,k (8 FNs? the
        # figure lists 8 letters) -- TP 3, FP 2, FN 8 -> ATP -7.
        for score in _scores(
                (Regex.raw(r"^(\d+)\.[^\.]+\.equinix\.com$"),), dataset):
            assert score.tp == 3
            assert score.fp == 2
            assert score.atp == -7

    def test_regex2(self, dataset):
        for score in _scores(
                (Regex.raw(r"^p(\d+)\.[^\.]+\.equinix\.com$"),), dataset):
            assert score.tp == 2
            assert score.fp == 0
            assert score.atp == -7

    def test_regex3(self, dataset):
        for score in _scores(
                (Regex.raw(r"^s(\d+)\.[^\.]+\.equinix\.com$"),), dataset):
            assert score.tp == 2
            assert score.atp == -7

    def test_regex4(self, dataset):
        # ^(\d+)-.+\.equinix\.com$: TP h,i,j,k; FP p -> ATP -4.
        for score in _scores(
                (Regex.raw(r"^(\d+)-.+\.equinix\.com$"),), dataset):
            assert score.tp == 4
            assert score.fp == 1
            assert score.atp == -4

    def test_regex5_merged(self, dataset):
        for score in _scores(
                (Regex.raw(r"^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$"),),
                dataset):
            assert score.tp == 7
            assert score.fp == 2
            assert score.fn == 4
            assert score.atp == 1

    def test_regex6_char_classes(self, dataset):
        for score in _scores(
                (Regex.raw(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),),
                dataset):
            assert score.tp == 7
            assert score.fp == 2
            assert score.atp == 1

    def test_nc7_set(self, dataset):
        for score in _scores(
                (Regex.raw(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
                 Regex.raw(r"^(\d+)-.+\.equinix\.com$")), dataset):
            assert score.tp == 11
            assert score.fp == 3
            assert score.fn == 0
            assert score.atp == 8
            assert score.matches == 14


class TestLearnedConvention:
    def test_learner_reproduces_nc7(self, dataset):
        convention = learn_suffix(dataset)
        assert convention is not None
        assert convention.patterns() == [
            r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$",
            r"^(\d+)-.+\.equinix\.com$",
        ]
        assert convention.score.atp == 8

    def test_microsoft_siblings_are_fps(self, dataset):
        # Hostnames n and o (8069/8074 vs training 8075) must be FPs
        # before sibling adjustment.
        convention = learn_suffix(dataset)
        assert convention.score.fp == 3

    def test_distinct_asns(self, dataset):
        convention = learn_suffix(dataset)
        # TPs extract 109, 714, 24115, 22822, 24482, 54827, 55247.
        assert convention.score.distinct == 7

    def test_extract_api(self, dataset):
        convention = learn_suffix(dataset)
        assert convention.extract("p24115.mel.equinix.com") == 24115
        assert convention.extract("24482-fr5-ix.equinix.com") == 24482
        assert convention.extract("netflix.zh2.corp.eu.equinix.com") is None
