"""Unit tests for the four learning phases (sections 3.2-3.5)."""

import pytest

from repro.core.matchcache import MatchCache
from repro.core.phase1 import candidates_for_item, generate_base_regexes
from repro.core.phase2 import merge_regexes
from repro.core.phase3 import specialise_regex
from repro.core.phase4 import build_regex_sets, rank_regexes
from repro.core.regex_model import Alt, Cap, Exclude, Lit, Regex
from repro.core.types import SuffixDataset, TrainingItem
from tests.reference_scoring import evaluate_nc, evaluate_regex


@pytest.fixture
def equinix():
    """The figure-4 dataset."""
    items = [
        TrainingItem("109.sgw.equinix.com", 109),
        TrainingItem("714.os.equinix.com", 714),
        TrainingItem("714.me1.equinix.com", 714),
        TrainingItem("p714.sgw.equinix.com", 714),
        TrainingItem("s714.sgw.equinix.com", 714),
        TrainingItem("p24115.mel.equinix.com", 24115),
        TrainingItem("s24115.tyo.equinix.com", 24115),
        TrainingItem("22822-2.tyo.equinix.com", 22282),
        TrainingItem("24482-fr5-ix.equinix.com", 24482),
        TrainingItem("54827-dc5-ix2.equinix.com", 54827),
        TrainingItem("55247-ch3-ix.equinix.com", 55247),
        TrainingItem("netflix.zh2.corp.eu.equinix.com", 2906),
        TrainingItem("ipv4.dosarrest.eqix.equinix.com", 19324),
        TrainingItem("8069.tyo.equinix.com", 8075),
        TrainingItem("8074.hkg.equinix.com", 8075),
        TrainingItem("45437-sy1-ix.equinix.com", 55923),
    ]
    return SuffixDataset("equinix.com", items)


class TestPhase1:
    def test_candidates_embed_literal_context(self, equinix):
        # Hostname d: p714.sgw.equinix.com must yield a regex with the
        # "p" literal before the capture (paper's regex #2).
        index = [i.hostname for i in equinix.items].index(
            "p714.sgw.equinix.com")
        patterns = {r.pattern for r in candidates_for_item(equinix, index)}
        assert "^p(\\d+)\\.[^\\.]+\\.equinix\\.com$" in patterns

    def test_candidates_include_bare(self, equinix):
        index = [i.hostname for i in equinix.items].index(
            "109.sgw.equinix.com")
        patterns = {r.pattern for r in candidates_for_item(equinix, index)}
        assert "^(\\d+)\\.[^\\.]+\\.equinix\\.com$" in patterns

    def test_candidates_include_any_variant(self, equinix):
        # Paper's regex #4 for the dash-format hostnames.
        index = [i.hostname for i in equinix.items].index(
            "24482-fr5-ix.equinix.com")
        patterns = {r.pattern for r in candidates_for_item(equinix, index)}
        assert "^(\\d+)-.+\\.equinix\\.com$" in patterns

    def test_no_candidates_without_apparent_asn(self, equinix):
        index = [i.hostname for i in equinix.items].index(
            "netflix.zh2.corp.eu.equinix.com")
        assert candidates_for_item(equinix, index) == []

    def test_generation_deduplicates(self, equinix):
        pool = generate_base_regexes(equinix)
        assert len({r.pattern for r in pool}) == len(pool)

    def test_max_candidates_cap(self, equinix):
        pool = generate_base_regexes(equinix, max_candidates=5)
        assert len(pool) == 5

    def test_sample_cap(self, equinix):
        all_pool = generate_base_regexes(equinix)
        sampled = generate_base_regexes(equinix, sample=2)
        assert len(sampled) <= len(all_pool)

    def test_at_most_one_any_per_regex(self, equinix):
        for regex in generate_base_regexes(equinix):
            assert regex.pattern.count(".+") <= 1


class TestPhase2:
    def test_merges_p_s_and_empty(self, equinix):
        pool = [
            Regex([Cap(), Lit("."), Exclude(frozenset("."))],
                  "equinix.com"),
            Regex([Lit("p"), Cap(), Lit("."), Exclude(frozenset("."))],
                  "equinix.com"),
            Regex([Lit("s"), Cap(), Lit("."), Exclude(frozenset("."))],
                  "equinix.com"),
        ]
        merged = merge_regexes(pool)
        patterns = {r.pattern for r in merged}
        assert "^(?:p|s)?(\\d+)\\.[^\\.]+\\.equinix\\.com$" in patterns

    def test_merge_without_empty_not_optional(self):
        pool = [
            Regex([Lit("p"), Cap()], "x.com"),
            Regex([Lit("s"), Cap()], "x.com"),
        ]
        # The bare skeleton participates as an empty option at position
        # 0 for *each* regex itself, so (?:p|s) groups form; optionality
        # requires a third regex with nothing in the slot.
        merged = merge_regexes(pool)
        patterns = {r.pattern for r in merged}
        assert "^(?:p|s)(\\d+)\\.x\\.com$" not in patterns \
            or "^(?:p|s)?(\\d+)\\.x\\.com$" not in patterns

    def test_punctuation_not_merged(self):
        pool = [
            Regex([Cap(), Lit("."), Exclude(frozenset("."))], "x.com"),
            Regex([Cap(), Lit("-"), Exclude(frozenset("-"))], "x.com"),
        ]
        assert merge_regexes(pool) == []

    def test_empty_pool(self):
        assert merge_regexes([]) == []

    def test_merged_regex_matches_both_formats(self):
        pool = [
            Regex([Lit("p"), Cap()], "x.com"),
            Regex([Lit("s"), Cap()], "x.com"),
        ]
        merged = merge_regexes(pool)
        assert merged, "expected a merge"
        combined = merged[0]
        assert combined.extract("p1.x.com") is not None
        assert combined.extract("s1.x.com") is not None


class TestPhase3:
    def test_specialises_to_alnum_class(self, equinix):
        regex = Regex([Alt(("p", "s"), optional=True), Cap(), Lit("."),
                       Exclude(frozenset("."))], "equinix.com")
        specialised = specialise_regex(regex, MatchCache(equinix))
        assert specialised is not None
        # Hostname c (714.me1) contains a digit in the second portion.
        assert specialised.pattern == \
            "^(?:p|s)?(\\d+)\\.[a-z\\d]+\\.equinix\\.com$"

    def test_pure_alpha_class(self):
        items = [TrainingItem("as%d.lon.x.com" % a, a)
                 for a in (111, 222, 333)]
        dataset = SuffixDataset("x.com", items)
        regex = Regex([Lit("as"), Cap(), Lit("."),
                       Exclude(frozenset("."))], "x.com")
        specialised = specialise_regex(regex, MatchCache(dataset))
        assert specialised.pattern == "^as(\\d+)\\.[a-z]+\\.x\\.com$"

    def test_digit_class(self):
        items = [TrainingItem("as%d.%d.x.com" % (a, i), a)
                 for i, a in enumerate((111, 222, 333))]
        dataset = SuffixDataset("x.com", items)
        regex = Regex([Lit("as"), Cap(), Lit("."),
                       Exclude(frozenset("."))], "x.com")
        specialised = specialise_regex(regex, MatchCache(dataset))
        assert specialised.pattern == "^as(\\d+)\\.\\d+\\.x\\.com$"

    def test_none_when_no_exclude(self, equinix):
        regex = Regex([Lit("as"), Cap()], "equinix.com")
        assert specialise_regex(regex, MatchCache(equinix)) is None

    def test_none_when_never_matches(self, equinix):
        regex = Regex([Lit("zzz"), Cap(), Lit("."),
                       Exclude(frozenset("."))], "equinix.com")
        assert specialise_regex(regex, MatchCache(equinix)) is None


class TestPhase4:
    def test_set_improves_atp(self, equinix):
        first = Regex.raw(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$")
        second = Regex.raw(r"^(\d+)-.+\.equinix\.com$")
        solo = evaluate_nc((first,), equinix)
        pair = evaluate_nc((first, second), equinix)
        assert pair.atp > solo.atp
        assert pair.atp == 8        # the paper's NC #7 score

    def test_build_regex_sets_contains_singletons(self, equinix):
        scored = {}
        for regex in (Regex.raw(r"^(\d+)\.[a-z\d]+\.equinix\.com$"),
                      Regex.raw(r"^(\d+)-.+\.equinix\.com$")):
            scored[regex] = evaluate_regex(regex, equinix)
        conventions = build_regex_sets(scored, MatchCache(equinix))
        sizes = {len(regexes) for regexes, _ in conventions}
        assert 1 in sizes
        assert 2 in sizes

    def test_first_match_wins_order(self, equinix):
        # A set is evaluated with the first matching regex supplying the
        # extraction: a greedy catch-all first changes the result.
        catch_all = Regex.raw(r"^.*?(\d+).*\.equinix\.com$")
        tight = Regex.raw(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$")
        loose_first = evaluate_nc((catch_all, tight), equinix)
        tight_first = evaluate_nc((tight, catch_all), equinix)
        assert tight_first.tp >= loose_first.tp

    def test_rank_prefers_specific_on_tie(self, equinix):
        specific = Regex.raw(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$")
        # Force identical scores via the same raw pattern evaluated;
        # build a structured pair differing only in looseness.
        from repro.core.regex_model import (
            Alt, Any_, Cap, ClassSeq, Lit, CLASS_ALPHA, CLASS_DIGIT)
        loose = Regex([Alt(("p", "s"), optional=True), Cap(), Lit("."),
                       Any_()], "equinix.com")
        tight = Regex([Alt(("p", "s"), optional=True), Cap(), Lit("."),
                       ClassSeq(frozenset([CLASS_ALPHA, CLASS_DIGIT]))],
                      "equinix.com")
        scored = {loose: evaluate_regex(loose, equinix),
                  tight: evaluate_regex(tight, equinix)}
        assert scored[loose].atp == scored[tight].atp
        ranked = rank_regexes(scored)
        assert ranked[0] is tight
