"""Tests for shadow deployment (:mod:`repro.serve.shadow`): the
divergence ledger, the AnnotationService-compatible wrapper, the
promote lifecycle, report building/merging, and the acceptance
properties (shadow-mode answers byte-identical to a plain primary;
post-promote answers byte-identical to a plain candidate)."""

import json
import threading

import pytest

from repro.bench import shadow_divergence_case, zipf_hostnames
from repro.core.hoiho import Hoiho
from repro.core.types import TrainingItem
from repro.obs.metrics import MetricsRegistry
from repro.serve.service import AnnotationService
from repro.serve.shadow import (
    CLASS_AGREE,
    CLASS_CANDIDATE_ONLY,
    CLASS_CONFLICT,
    CLASS_PRIMARY_ONLY,
    DIVERGENCE_CLASSES,
    EXAMPLE_CAP,
    MISS_LABEL,
    ShadowLedger,
    ShadowService,
    merge_shadow_reports,
    render_shadow_report,
    shadow_report_from_snapshot,
)


def learned(suffix="example.com"):
    return Hoiho().run([
        TrainingItem("as%d.pop%d.%s" % (asn, i % 3, suffix), asn)
        for i, asn in enumerate([3356, 1299, 174, 2914, 6453])])


def shadowed(primary_result, candidate_result):
    service = ShadowService(AnnotationService(primary_result))
    service.load_candidate(candidate_result)
    service.warm()
    return service


class TestLedger:
    def _ledger(self):
        return ShadowLedger(MetricsRegistry())

    def test_classifies_every_divergence_class(self):
        ledger = self._ledger()
        ledger.observe_one("h1", (100, "a.com"), (100, "a.com"))
        ledger.observe_one("h2", (None, None), (None, None))
        ledger.observe_one("h3", (100, "a.com"), (None, None))
        ledger.observe_one("h4", (None, None), (100, "b.com"))
        ledger.observe_one("h5", (100, "a.com"), (200, "a.com"))
        report = shadow_report_from_snapshot(ledger.metrics.snapshot())
        assert report["requests"] == 5
        assert report["agree"] == 2
        assert report["primary_only"] == 1
        assert report["candidate_only"] == 1
        assert report["conflict"] == 1
        assert report["disagreements"] == 3
        assert report["disagreement_fraction"] == pytest.approx(0.6)

    def test_agreeing_miss_uses_the_miss_label(self):
        ledger = self._ledger()
        ledger.observe_one("nope.net", (None, None), (None, None))
        labelled = ledger.metrics.snapshot()["labelled"]
        assert labelled["shadow_agree"] == {MISS_LABEL: 1}

    def test_same_asn_from_different_suffixes_is_agreement(self):
        ledger = self._ledger()
        ledger.observe_one("h", (100, "a.com"), (100, "b.com"))
        report = shadow_report_from_snapshot(ledger.metrics.snapshot())
        assert report["agree"] == 1
        assert report["disagreements"] == 0

    def test_divergence_labelled_by_the_annotating_side(self):
        ledger = self._ledger()
        ledger.observe_one("h1", (100, "p.com"), (None, None))
        ledger.observe_one("h2", (None, None), (100, "c.com"))
        ledger.observe_one("h3", (100, "p.com"), (200, "x.com"))
        labelled = ledger.metrics.snapshot()["labelled"]
        assert labelled["shadow_primary_only"] == {"p.com": 1}
        assert labelled["shadow_candidate_only"] == {"c.com": 1}
        # Conflicts are filed under the primary's suffix.
        assert labelled["shadow_conflict"] == {"p.com": 1}

    def test_examples_capped_and_stringified(self):
        ledger = self._ledger()
        for i in range(EXAMPLE_CAP + 3):
            ledger.observe_one("host%d.p.com" % i,
                               (100 + i, "p.com"), (None, None))
        ledger.observe_one(42, (1, "p.com"), (None, None))
        examples = ledger.examples()
        assert examples[CLASS_PRIMARY_ONLY] == \
            ["host%d.p.com" % i for i in range(EXAMPLE_CAP)]
        assert examples[CLASS_CANDIDATE_ONLY] == []
        ledger2 = self._ledger()
        ledger2.observe_one(42, (1, "p.com"), (None, None))
        assert ledger2.examples()[CLASS_PRIMARY_ONLY] == ["42"]

    def test_clear_resets_counts_and_examples(self):
        ledger = self._ledger()
        ledger.observe_one("h", (100, "p.com"), (None, None))
        ledger.clear()
        assert ledger.disagreement_fraction() == 0.0
        assert ledger.examples() == {cls: []
                                     for cls in DIVERGENCE_CLASSES}
        report = shadow_report_from_snapshot(ledger.metrics.snapshot())
        assert report["requests"] == 0
        assert report["disagreements"] == 0


class TestShadowService:
    def test_passthrough_without_candidate(self):
        result = learned()
        plain = AnnotationService(result)
        shadow = ShadowService(AnnotationService(result))
        hostnames = ["as100.pop1.example.com", "miss.example.org", ""]
        assert shadow.annotate_batch(hostnames) == \
            plain.annotate_batch(hostnames)
        assert shadow.candidate is None
        assert shadow.report()["requests"] == 0
        assert shadow.report()["active"] is False

    def test_ledger_exact_on_constructed_divergence(self):
        primary, candidate, hostnames, expected = \
            shadow_divergence_case(n=200)
        service = shadowed(primary, candidate)
        service.annotate_batch(hostnames)
        report = service.report()
        observed = {cls: report[cls]
                    for cls in ("agree",) + DIVERGENCE_CLASSES}
        assert observed == expected
        assert report["requests"] == 200
        assert report["disagreement_fraction"] == pytest.approx(0.4)
        assert report["active"] is True
        for cls in DIVERGENCE_CLASSES:
            assert len(report["examples"][cls]) == EXAMPLE_CAP

    def test_shadow_answers_identical_to_plain_primary(self):
        # Acceptance property: with any candidate riding shotgun, the
        # caller-visible entries are byte-identical to a plain service
        # over the primary set -- the candidate never leaks.
        primary, candidate, hostnames, _ = shadow_divergence_case(n=100)
        hostnames += ["", "  .  ", "AS100.POP1.Svc00-Bench.ORG."]
        service = shadowed(primary, candidate)
        oracle = AnnotationService(primary)
        oracle.warm()
        assert service.annotate_entries(hostnames) == \
            oracle.annotate_entries(hostnames)
        for hostname in hostnames[:10]:
            assert service.annotate_entries([hostname]) == \
                oracle.annotate_entries([hostname])

    def test_primary_metrics_identical_to_plain_service(self):
        # The candidate annotates into its own registry; the primary's
        # request accounting must match a plain service exactly.
        primary, candidate, hostnames, _ = shadow_divergence_case(n=100)
        service = shadowed(primary, candidate)
        oracle = AnnotationService(primary)
        oracle.warm()
        service.annotate_batch(hostnames)
        oracle.annotate_batch(hostnames)
        ours = service.stats()
        theirs = oracle.stats()
        assert ours["counters"]["requests"] == \
            theirs["counters"]["requests"]
        assert ours["counters"]["annotated"] == \
            theirs["counters"]["annotated"]
        assert ours["counters"]["misses"] == theirs["counters"]["misses"]
        assert ours["labelled"]["extracted"] == \
            theirs["labelled"]["extracted"]

    def test_promote_swaps_and_answers_match_plain_candidate(self):
        # Acceptance property: after promote, answers are byte-identical
        # to a plain service over the candidate set.
        primary, candidate, hostnames, _ = shadow_divergence_case(n=100)
        service = shadowed(primary, candidate)
        service.annotate_batch(hostnames)
        count = service.promote()
        oracle = AnnotationService(candidate)
        oracle.warm()
        assert count == len(oracle.index)
        assert service.candidate is None
        assert service.annotate_entries(hostnames) == \
            oracle.annotate_entries(hostnames)
        report = service.report()
        assert report["active"] is False

    def test_promote_clears_the_ledger(self):
        primary, candidate, hostnames, _ = shadow_divergence_case(n=100)
        service = shadowed(primary, candidate)
        service.annotate_batch(hostnames)
        assert service.disagreement_fraction() > 0
        service.promote()
        assert service.disagreement_fraction() == 0.0
        assert service.report()["requests"] == 0

    def test_promote_without_candidate_raises(self):
        service = ShadowService(AnnotationService(learned()))
        with pytest.raises(LookupError):
            service.promote()

    def test_load_candidate_starts_a_fresh_epoch(self):
        primary, candidate, hostnames, _ = shadow_divergence_case(n=100)
        service = shadowed(primary, candidate)
        service.annotate_batch(hostnames)
        assert service.report()["requests"] == 100
        service.load_candidate(candidate)
        assert service.report()["requests"] == 0

    def test_reload_primary_clears_ledger_and_keeps_candidate(self):
        primary, candidate, hostnames, _ = shadow_divergence_case(n=100)
        service = shadowed(primary, candidate)
        service.annotate_batch(hostnames)
        service.reload_result(primary)
        assert service.report()["requests"] == 0
        assert service.candidate is not None

    def test_to_json_serializes_the_primary_only(self):
        com, org = learned("example.com"), learned("example.org")
        service = shadowed(com, org)
        plain = AnnotationService(com)
        assert service.to_json() == plain.to_json()

    def test_stats_carry_the_shadow_extra_and_serialize(self):
        com, org = learned("example.com"), learned("example.org")
        service = shadowed(com, org)
        service.annotate_one("as100.pop1.example.com")
        snapshot = service.stats()
        assert snapshot["shadow"]["active"] is True
        assert snapshot["shadow"]["candidate_suffixes"] == 1
        json.dumps(snapshot)

    def test_repr_mentions_both_sides(self):
        service = shadowed(learned("example.com"),
                           learned("example.org"))
        assert "candidate=1" in repr(service)


class TestReports:
    def test_merge_adds_counts_and_caps_examples(self):
        primary, candidate, hostnames, expected = \
            shadow_divergence_case(n=100)
        workers = [shadowed(primary, candidate) for _ in range(2)]
        for worker in workers:
            worker.annotate_batch(hostnames)
        merged = merge_shadow_reports(w.stats() for w in workers)
        assert merged["requests"] == 200
        for cls in ("agree",) + DIVERGENCE_CLASSES:
            assert merged[cls] == 2 * expected[cls]
        assert merged["active"] is True
        for cls in DIVERGENCE_CLASSES:
            assert len(merged["examples"][cls]) == EXAMPLE_CAP

    def test_merge_of_inactive_workers_is_inactive(self):
        services = [ShadowService(AnnotationService(learned()))
                    for _ in range(2)]
        merged = merge_shadow_reports(s.stats() for s in services)
        assert merged["active"] is False
        assert merged["requests"] == 0

    def test_report_per_suffix_rows_have_every_class(self):
        primary, candidate, hostnames, _ = shadow_divergence_case(n=100)
        service = shadowed(primary, candidate)
        service.annotate_batch(hostnames)
        for row in service.report()["per_suffix"].values():
            assert sorted(row) == sorted(("agree",) + DIVERGENCE_CLASSES)

    def test_render_names_disagreeing_suffixes(self):
        primary, candidate, hostnames, _ = shadow_divergence_case(n=100)
        service = shadowed(primary, candidate)
        service.annotate_batch(hostnames)
        text = render_shadow_report(service.report())
        assert "shadow disagreement report" in text
        assert "svc07-bench.org" in text
        assert "extra-bench.org" in text
        assert "confl-bench.org" in text

    def test_render_without_candidate_says_so(self):
        service = ShadowService(AnnotationService(learned()))
        assert "(no candidate loaded)" in \
            render_shadow_report(service.report())


class TestZipfPropertyIdentity:
    def test_shadow_is_invisible_on_the_bench_workload(self):
        # The bench's own workload, end to end: identical answers with
        # the shadow active, and again after promoting an identical
        # candidate (promote must be a no-op for callers here).
        from repro.bench import serve_conventions
        result = serve_conventions(n_suffixes=8)
        hostnames = zipf_hostnames(n=2000, universe=300)
        plain = AnnotationService(result)
        plain.warm()
        service = shadowed(result, result)
        expected = plain.annotate_batch(hostnames)
        assert service.annotate_batch(hostnames) == expected
        assert service.disagreement_fraction() == 0.0
        service.promote()
        assert service.annotate_batch(hostnames) == expected


class TestConcurrency:
    """Thread-stress for the shadow seams (satellite: concurrent
    swap/promote must never corrupt caller-visible answers)."""

    def test_candidate_swaps_never_change_primary_answers(self):
        com, org, net = (learned("example.com"), learned("example.org"),
                         learned("example.net"))
        service = shadowed(com, org)
        stop = threading.Event()
        errors = []

        def _swapper():
            try:
                while not stop.is_set():
                    service.load_candidate(net)
                    service.load_candidate(org)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        swapper = threading.Thread(target=_swapper, daemon=True)
        swapper.start()
        hostnames = ["as100.pop1.example.com", "as100.pop1.example.org",
                     "as100.pop1.example.net"]
        try:
            for _ in range(200):
                assert service.annotate_batch(hostnames) == \
                    [100, None, None]
        finally:
            stop.set()
            swapper.join(10)
        assert not errors

    def test_promote_cycle_vs_annotate_batch(self):
        # A promote flips every answer from com to org (and back); a
        # batch reads one primary state, so each batch must agree with
        # exactly one of the two sets -- never a mix.
        com, org = learned("example.com"), learned("example.org")
        service = shadowed(com, org)
        stop = threading.Event()
        errors = []

        def _promoter():
            try:
                while not stop.is_set():
                    service.promote()          # -> org primary
                    service.load_candidate(com)
                    service.promote()          # -> com primary
                    service.load_candidate(org)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        promoter = threading.Thread(target=_promoter, daemon=True)
        promoter.start()
        pair = ["as100.pop1.example.com", "as100.pop1.example.org"]
        try:
            for _ in range(200):
                batch = service.annotate_batch(pair)
                assert batch in ([100, None], [None, 100])
        finally:
            stop.set()
            promoter.join(10)
        assert not errors

    def test_stats_stay_consistent_under_swaps(self):
        com, org, net = (learned("example.com"), learned("example.org"),
                         learned("example.net"))
        service = shadowed(com, org)
        stop = threading.Event()
        errors = []

        def _swapper():
            try:
                while not stop.is_set():
                    service.load_candidate(net)
                    service.load_candidate(org)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        swapper = threading.Thread(target=_swapper, daemon=True)
        swapper.start()
        try:
            for _ in range(200):
                service.annotate_one("as100.pop1.example.com")
                snapshot = service.stats()
                json.dumps(snapshot)
                assert snapshot["shadow"]["active"] is True
                assert snapshot["shadow"]["candidate_suffixes"] == 1
                report = shadow_report_from_snapshot(snapshot)
                assert report["disagreements"] <= report["requests"]
        finally:
            stop.set()
            swapper.join(10)
        assert not errors
