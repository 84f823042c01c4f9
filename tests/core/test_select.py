"""Unit tests for best-convention selection and classification."""

from repro.core.evaluate import NCScore
from repro.core.regex_model import Regex
from repro.core.select import (
    LearnedConvention,
    NCClass,
    classify_nc,
    select_best,
)


def _score(tp=0, fp=0, fn=0, matches=0, distinct=0):
    score = NCScore(tp=tp, fp=fp, fn=fn, matches=matches)
    score.distinct_asns = set(range(distinct))
    return score


def _regexes(n):
    return tuple(Regex.raw(r"^r%d(\d+)\.x\.com$" % i) for i in range(n))


class TestClassify:
    def test_good(self):
        assert classify_nc(_score(tp=10, fp=1, distinct=3)) is NCClass.GOOD

    def test_good_needs_three_distinct(self):
        assert classify_nc(_score(tp=10, fp=1, distinct=2)) \
            is NCClass.PROMISING

    def test_good_needs_ppv_80(self):
        score = _score(tp=7, fp=3, distinct=5)    # PPV 0.70
        assert classify_nc(score) is NCClass.PROMISING

    def test_promising_needs_ppv_50(self):
        assert classify_nc(_score(tp=5, fp=5, distinct=2)) \
            is NCClass.PROMISING
        assert classify_nc(_score(tp=4, fp=6, distinct=2)) is NCClass.POOR

    def test_poor_single_distinct(self):
        assert classify_nc(_score(tp=10, fp=0, distinct=1)) is NCClass.POOR

    def test_boundary_exact_80(self):
        assert classify_nc(_score(tp=8, fp=2, distinct=3)) is NCClass.GOOD

    def test_usable_property(self):
        assert NCClass.GOOD.usable
        assert NCClass.PROMISING.usable
        assert not NCClass.POOR.usable


class TestSelectBest:
    def test_empty(self):
        assert select_best([]) is None

    def test_top_atp_wins_by_default(self):
        top = (_regexes(2), _score(tp=10, matches=10, distinct=4))
        other = (_regexes(3), _score(tp=8, matches=8, distinct=4))
        regexes, score = select_best([top, other])
        assert score.tp == 10

    def test_prefers_fewer_regexes_when_close(self):
        # Same matches and TPs, one more FP, fewer regexes: selected.
        big = (_regexes(3), _score(tp=10, fp=0, matches=12, distinct=4))
        small = (_regexes(1), _score(tp=10, fp=1, fn=1, matches=12,
                                     distinct=4))
        regexes, _ = select_best([big, small])
        assert len(regexes) == 1

    def test_rejects_fewer_regexes_with_fewer_matches(self):
        big = (_regexes(3), _score(tp=10, fp=0, matches=12, distinct=4))
        small = (_regexes(1), _score(tp=10, fp=1, matches=10, distinct=4))
        regexes, _ = select_best([big, small])
        assert len(regexes) == 3

    def test_rejects_two_more_fps(self):
        big = (_regexes(2), _score(tp=10, fp=0, matches=12, distinct=4))
        small = (_regexes(1), _score(tp=10, fp=2, fn=2, matches=12,
                                     distinct=4))
        regexes, _ = select_best([big, small])
        assert len(regexes) == 2

    def test_rejects_fewer_tps(self):
        big = (_regexes(2), _score(tp=10, fp=0, matches=12, distinct=4))
        small = (_regexes(1), _score(tp=9, fp=0, matches=12, distinct=4))
        regexes, _ = select_best([big, small])
        assert len(regexes) == 2


class TestLearnedConvention:
    def test_extract_first_match_wins(self):
        convention = LearnedConvention(
            suffix="x.com",
            regexes=(Regex.raw(r"^as(\d+)\.x\.com$"),
                     Regex.raw(r"^.*-as(\d+)\.x\.com$")),
            score=_score(tp=5, distinct=3),
            nc_class=NCClass.GOOD)
        assert convention.extract("as64500.x.com") == 64500
        assert convention.extract("gw-as99.x.com") == 99
        assert convention.extract("nothing.x.com") is None

    def test_extract_lowercases(self):
        convention = LearnedConvention(
            suffix="x.com",
            regexes=(Regex.raw(r"^as(\d+)\.x\.com$"),),
            score=_score(tp=5, distinct=3),
            nc_class=NCClass.GOOD)
        assert convention.extract("AS64500.X.COM") == 64500

    def test_single_flag(self):
        convention = LearnedConvention(
            suffix="x.com", regexes=_regexes(1),
            score=_score(), nc_class=NCClass.POOR)
        assert convention.single
        assert not convention.usable
