"""Unit tests for the AS-name learner (section-7 future work)."""

from repro.core.asname import (
    NameHoiho,
    evaluate_name_regex,
    learn_name_suffix,
)
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset, TrainingItem


def _telia_style():
    """seabone/telia-style: neighbor AS name embedded, no number."""
    names = {"seabone": 6762, "verizon": 701, "cogent": 174,
             "lumen": 3356, "arelion": 1299}
    items = []
    for i, (name, asn) in enumerate(sorted(names.items())):
        for j in range(3):
            items.append(TrainingItem(
                "%s-ic-3%d%d.fra%d.example.net" % (name, i, j, j + 1),
                asn))
    # Infrastructure noise without names.
    items += [TrainingItem("lo0.cr%d.fra.example.net" % i, 6762)
              for i in range(3)]
    return SuffixDataset("example.net", items)


class TestLearnNameSuffix:
    def test_learns_telia_style(self):
        convention = learn_name_suffix(_telia_style())
        assert convention is not None
        assert convention.score.purity == 1.0
        assert convention.mapping["seabone"] == 6762
        assert convention.mapping["cogent"] == 174
        assert len(set(convention.mapping.values())) == 5

    def test_extracts_via_mapping(self):
        convention = learn_name_suffix(_telia_style())
        assert convention.extract(
            "seabone-ic-999.mia9.example.net") == 6762
        assert convention.extract_name(
            "newcomer-ic-1.fra1.example.net") == "newcomer"
        assert convention.extract(
            "newcomer-ic-1.fra1.example.net") is None   # unseen token

    def test_rejects_geo_only_suffix(self):
        # Location tokens repeat across many ASNs: purity collapses.
        items = [TrainingItem("xe0-%d.fra.example.net" % i, 1000 + i)
                 for i in range(6)]
        items += [TrainingItem("xe1-%d.lon.example.net" % i, 2000 + i)
                  for i in range(6)]
        assert learn_name_suffix(SuffixDataset("example.net", items)) \
            is None

    def test_rejects_single_asn_suffix(self):
        items = [TrainingItem("customer%d.pop.example.net" % i, 42)
                 for i in range(8)]
        assert learn_name_suffix(SuffixDataset("example.net", items)) \
            is None

    def test_min_tokens_gate(self):
        # Only two distinct name tokens: below the default gate.
        items = []
        for name, asn in (("alpha", 1), ("beta", 2)):
            for j in range(4):
                items.append(TrainingItem(
                    "%s.pop%d.example.net" % (name, j), asn))
        assert learn_name_suffix(SuffixDataset("example.net", items)) \
            is None

    def test_purity_gate(self):
        # Tokens that flip between ASNs half the time.
        items = []
        for j in range(10):
            items.append(TrainingItem("mix.pop%d.example.net" % j,
                                      1 if j % 2 else 2))
            items.append(TrainingItem("other.pop%d.example.net" % j,
                                      3 if j % 2 else 4))
        items.append(TrainingItem("third.pop0.example.net", 5))
        items.append(TrainingItem("third.pop1.example.net", 5))
        assert learn_name_suffix(SuffixDataset("example.net", items)) \
            is None


class TestEvaluateNameRegex:
    def test_counts(self):
        dataset = _telia_style()
        regex = Regex.raw(r"^([a-z]+)-ic-\d+\.[a-z\d]+\.example\.net$")
        score = evaluate_name_regex(regex, dataset)
        assert score.tp == 15
        assert score.fp == 0
        assert score.distinct_asns == 5

    def test_stopwords_ignored(self):
        items = [TrainingItem("cust.pop%d.example.net" % j, j) for j in
                 range(4)]
        regex = Regex.raw(r"^([a-z]+)\.pop\d\.example\.net$")
        score = evaluate_name_regex(regex, SuffixDataset("example.net",
                                                         items))
        assert score.tp == 0 and score.fp == 0

    def test_min_occurrences_filter(self):
        items = [TrainingItem("solo.pop.example.net", 7),
                 TrainingItem("duos.pop.example.net", 8),
                 TrainingItem("duos.pop2.example.net", 8)]
        regex = Regex.raw(r"^([a-z]+)\..*example\.net$")
        strict = evaluate_name_regex(
            regex, SuffixDataset("example.net", items), min_occurrences=2)
        assert "solo" not in strict.tokens
        assert strict.tokens.get("duos") == 8
        # The default allows singleton tokens (operators often have a
        # single interface per neighbor).
        loose = evaluate_name_regex(
            regex, SuffixDataset("example.net", items))
        assert loose.tokens.get("solo") == 7


class TestNameHoiho:
    def test_groups_by_suffix(self):
        items = []
        for name, asn in (("seabone", 6762), ("cogent", 174),
                          ("lumen", 3356)):
            for j in range(3):
                items.append(TrainingItem(
                    "%s.pop%d.alpha.net" % (name, j), asn))
        conventions = NameHoiho().run(items)
        assert set(conventions) == {"alpha.net"}

    def test_on_synthetic_world_names(self):
        """The NAME-convention operators of a synthetic world yield
        learnable name conventions."""
        from repro import METHOD_BDRMAPIT, SnapshotSpec, WorldConfig, \
            generate_world, run_snapshot
        world = generate_world(77, WorldConfig.tiny())
        result = run_snapshot(world, SnapshotSpec(
            label="t", year=2020.0, method=METHOD_BDRMAPIT, n_vps=8,
            seed=5))
        conventions = NameHoiho().run(result.training)
        # At least some suffix should yield a name convention; and any
        # learned mapping should be mostly correct vs ground truth.
        for suffix, convention in conventions.items():
            assert convention.score.purity >= 0.8
