"""Tests for convention serialization and reporting."""

import pytest

from repro.core.hoiho import Hoiho
from repro.core.io import (
    conventions_from_json,
    conventions_to_json,
    training_from_jsonl,
    training_to_jsonl,
)
from repro.core.report import render_convention, render_result
from repro.core.types import TrainingItem, group_by_suffix


@pytest.fixture(scope="module")
def learned():
    items = [TrainingItem("as%d.lon%d.example.com" % (a, i % 3), a,
                          address="4.0.0.%d" % (i + 1))
             for i, a in enumerate([3356, 1299, 174, 2914, 6453])]
    items += [TrainingItem("p%d-fra.other.net" % a, a)
              for a in (64500, 64501, 64502, 64503)]
    return items, Hoiho().run(items)


class TestTrainingJsonl:
    def test_round_trip(self, learned):
        items, _ = learned
        parsed = training_from_jsonl(training_to_jsonl(items))
        assert parsed == items

    def test_empty(self):
        assert training_to_jsonl([]) == ""
        assert training_from_jsonl("") == []

    def test_comments_skipped(self):
        parsed = training_from_jsonl(
            '# header\n{"hostname": "a.x.com", "asn": 5}\n')
        assert parsed == [TrainingItem("a.x.com", 5)]

    def test_address_optional(self):
        items = training_from_jsonl('{"hostname": "a.x.com", "asn": 5}')
        assert items[0].address is None

    def test_malformed_address_learns_as_unknown(self, learned):
        # An address that is not four decimal octets <= 255 is treated
        # as unknown, so learning matches a run without addresses.
        items, result = learned
        bad = ["4.0.x.1", "4.0.0.256", "4.0.0", "", "4.0.0.²"]
        lines = ['{"hostname": "%s", "asn": %d, "address": "%s"}'
                 % (item.hostname, item.train_asn, bad[i % len(bad)])
                 for i, item in enumerate(items)]
        parsed = training_from_jsonl("\n".join(lines))
        assert [item.address for item in parsed[:5]] == bad
        relearned = Hoiho().run(parsed)
        assert conventions_to_json(relearned) == conventions_to_json(result)


class TestConventionsJson:
    def test_round_trip_extraction_equivalent(self, learned):
        items, result = learned
        parsed = conventions_from_json(conventions_to_json(result))
        assert set(parsed.conventions) == set(result.conventions)
        for suffix, convention in result.conventions.items():
            clone = parsed.conventions[suffix]
            assert clone.patterns() == convention.patterns()
            assert clone.nc_class is convention.nc_class
            assert clone.score.atp == convention.score.atp
            for item in items:
                assert clone.extract(item.hostname) == \
                    convention.extract(item.hostname)

    def test_extract_through_parsed_result(self, learned):
        _, result = learned
        parsed = conventions_from_json(conventions_to_json(result))
        assert parsed.extract("as8075.lon1.example.com") == 8075


class TestReport:
    def test_render_convention_with_dataset(self, learned):
        items, result = learned
        datasets = group_by_suffix(items)
        convention = result.conventions["example.com"]
        text = render_convention(convention, datasets["example.com"])
        assert "suffix: example.com" in text
        assert "[TP]" in text
        assert "regex 1:" in text

    def test_render_convention_row_cap(self, learned):
        items, result = learned
        datasets = group_by_suffix(items)
        text = render_convention(result.conventions["example.com"],
                                 datasets["example.com"], max_rows=2)
        assert text.count("[TP]") <= 2

    def test_render_result(self, learned):
        items, result = learned
        text = render_result(result, group_by_suffix(items))
        assert "example.com" in text
        assert "other.net" in text
        assert text.startswith("#")

    def test_render_result_usable_only(self, learned):
        _, result = learned
        text = render_result(result, usable_only=True)
        for suffix, convention in result.conventions.items():
            if convention.usable:
                assert suffix in text
