"""The paper's published examples behave exactly as the paper says."""

import pytest

from repro.core.congruence import Outcome, apparent_asn_runs, congruent
from repro.core.hoiho import learn_suffix
from repro.core.types import SuffixDataset, group_by_suffix
from repro.paperdata import (
    FIGURE2_ITEMS,
    FIGURE3A_PAIRS,
    FIGURE3B_ITEMS,
    FIGURE4_ITEMS,
    NC7_PATTERNS,
)
from repro.util.strings import damerau_levenshtein


class TestFigure2:
    def test_suffix_is_nts_ch(self):
        groups = group_by_suffix(FIGURE2_ITEMS)
        assert set(groups) == {"nts.ch"}

    def test_rejected_as_asn_convention(self):
        """Every hostname embeds the supplier's ASN: only one distinct
        extraction is possible, so no convention is learned."""
        dataset = group_by_suffix(FIGURE2_ITEMS)["nts.ch"]
        assert learn_suffix(dataset) is None

    def test_customers_have_apparent_supplier_asn(self):
        # The three customer rows contain 15576 as an apparent number
        # (the regex would extract it) but it is incongruent with the
        # customer training ASNs.
        for item in FIGURE2_ITEMS[3:]:
            assert "as15576" in item.hostname
            assert not congruent("15576", item.train_asn)


class TestFigure3a:
    def test_all_pairs_are_distance_one(self):
        for hostname, train_asn, number in FIGURE3A_PAIRS:
            assert damerau_levenshtein(number, str(train_asn)) == 1, \
                (number, train_asn)

    def test_guard_decides_each_pair(self):
        """The guarded rule accepts exactly the pairs with matching
        first/last digits and length >= 3."""
        expected = {
            "201": False,      # first digit differs (2 vs 7)
            "85": False,       # too short
            "605": False,      # last digit differs (5 vs 7)
            "24940": True,     # middle substitution
            "202073": True,    # middle substitution
            "20732": True,     # middle deletion, ends agree
        }
        for hostname, train_asn, number in FIGURE3A_PAIRS:
            assert congruent(number, train_asn) is expected[number], \
                (number, train_asn)


class TestFigure3b:
    def test_ip_octets_never_apparent(self):
        """IP-derived hostnames have no apparent ASNs despite octets
        numerically equal to the training ASN."""
        dataset = SuffixDataset("x.net", FIGURE3B_ITEMS)
        for index, item in enumerate(dataset.items):
            runs = apparent_asn_runs(item.hostname, item.train_asn,
                                     dataset.ip_spans(index))
            assert runs == (), item.hostname

    def test_no_convention(self):
        groups = group_by_suffix(FIGURE3B_ITEMS)
        for dataset in groups.values():
            assert learn_suffix(dataset) is None


class TestFigure4:
    def test_sixteen_items(self):
        assert len(FIGURE4_ITEMS) == 16

    def test_nc7_learned(self):
        dataset = group_by_suffix(FIGURE4_ITEMS)["equinix.com"]
        convention = learn_suffix(dataset)
        assert convention is not None
        assert convention.patterns() == NC7_PATTERNS
