"""Unit tests for training data types."""

import pytest

from repro.core.types import SuffixDataset, TrainingItem, group_by_suffix


class TestSuffixDataset:
    def test_deduplication(self):
        items = [TrainingItem("as1.x.com", 1), TrainingItem("as1.x.com", 1),
                 TrainingItem("as1.x.com", 2)]
        dataset = SuffixDataset("x.com", items)
        assert len(dataset) == 2

    def test_sorted_deterministic(self):
        items = [TrainingItem("b.x.com", 2), TrainingItem("a.x.com", 1)]
        dataset = SuffixDataset("x.com", items)
        assert [i.hostname for i in dataset.items] == ["a.x.com", "b.x.com"]

    def test_lowercasing(self):
        dataset = SuffixDataset("x.com", [TrainingItem("AS1.X.com", 1)])
        assert dataset.items[0].hostname == "as1.x.com"

    def test_local_part(self):
        dataset = SuffixDataset("x.com", [TrainingItem("as1.pop.x.com", 1)])
        assert dataset.local_part(dataset.items[0]) == "as1.pop"

    def test_local_part_empty_for_bare_suffix(self):
        dataset = SuffixDataset("x.com", [TrainingItem("x.com", 1)])
        assert dataset.local_part(dataset.items[0]) == ""

    def test_local_part_requires_suffix(self):
        dataset = SuffixDataset("x.com", [TrainingItem("as1.x.com", 1)])
        with pytest.raises(ValueError):
            dataset.local_part(TrainingItem("as1.other.com", 1))

    def test_ip_spans_memoised(self):
        item = TrainingItem("1-2-3-4.x.com", 5, address="1.2.3.4")
        dataset = SuffixDataset("x.com", [item])
        assert dataset.ip_spans(0) == ((0, 7),)
        assert dataset.ip_spans(0) is dataset.ip_spans(0)

    def test_distinct_train_asns(self):
        items = [TrainingItem("a.x.com", 1), TrainingItem("b.x.com", 1),
                 TrainingItem("c.x.com", 2)]
        assert SuffixDataset("x.com", items).distinct_train_asns == 2

    def test_tokens(self):
        dataset = SuffixDataset("x.com",
                                [TrainingItem("as1-b.pop.x.com", 1)])
        assert dataset.tokens(dataset.items[0]) == \
            ["as1", "-", "b", ".", "pop"]


class TestGroupBySuffix:
    def test_groups(self):
        items = [TrainingItem("a.alpha.com", 1),
                 TrainingItem("b.alpha.com", 2),
                 TrainingItem("c.beta.co.uk", 3)]
        groups = group_by_suffix(items)
        assert set(groups) == {"alpha.com", "beta.co.uk"}
        assert len(groups["alpha.com"]) == 2

    def test_bare_tld_dropped(self):
        groups = group_by_suffix([TrainingItem("com", 1),
                                  TrainingItem("a.alpha.com", 1)])
        assert set(groups) == {"alpha.com"}

    def test_multi_label_suffix_grouping(self):
        items = [TrainingItem("r1.antel.net.uy", 6057),
                 TrainingItem("r2.antel.net.uy", 6057)]
        groups = group_by_suffix(items)
        assert set(groups) == {"antel.net.uy"}
