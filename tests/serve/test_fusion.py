"""Tests for fused-regex matchers: equivalence with the sequential
first-match loop (the oracle in ``tests/reference_matching.py``), every
fallback condition, and thread-safe lazy compilation
(complete-then-publish)."""

import re
import threading

from repro.serve.index import (
    MAX_FUSED_GROUPS,
    AnnotationPlan,
    DispatchIndex,
    _FusedMatcher,
    _SequentialMatcher,
    fuse_patterns,
)
from tests.reference_matching import SequentialLoop

PATTERNS = (
    r"^as(\d+)-et\d+\.pop\d+\.example\.com$",
    r"^(\d+)\.cr\d+\.example\.com$",
    r"^asn-(\d+)(-old)?\.example\.com$",
)

HOSTNAMES = [
    "as3356-et0.pop1.example.com",
    "1299.cr2.example.com",
    "asn-174.example.com",
    "asn-2914-old.example.com",
    "asn-2914-new.example.com",       # miss: suffix known, no match
    "www.example.com",                # miss
    "as3356-et0.pop1.example.net",    # wrong suffix
]


def plan_pair(patterns=PATTERNS):
    """The plan as served, and the sequential first-match oracle."""
    return (AnnotationPlan("example.com", patterns),
            SequentialLoop(patterns))


class TestFusion:
    def test_multi_pattern_plan_fuses(self):
        fused, _ = plan_pair()
        assert fused.fused is True
        assert isinstance(fused.matcher, _FusedMatcher)

    def test_fused_equals_sequential_on_corpus(self):
        fused, sequential = plan_pair()
        for hostname in HOSTNAMES:
            assert fused.extract(hostname) == sequential.extract(hostname), \
                hostname

    def test_first_match_wins_like_sequential(self):
        # Both patterns match "as11-22.example.com" but extract
        # different numbers; alternation order must preserve the
        # sequential first-match-wins semantics.
        patterns = (r"^as(\d+)-\d+\.example\.com$",
                    r"^as\d+-(\d+)\.example\.com$")
        fused, sequential = plan_pair(patterns)
        assert sequential.extract("as11-22.example.com") == 11
        assert fused.extract("as11-22.example.com") == 11
        assert fused.fused is True

    def test_later_branch_recovers_shifted_group(self):
        # The winning branch's ASN group sits at a shifted offset; a
        # match on the last alternative must read the right group.
        fused, _ = plan_pair()
        assert fused.extract("asn-2914-old.example.com") == 2914

    def test_miss_returns_none(self):
        fused, _ = plan_pair()
        assert fused.extract("no-such-host.example.com") is None

    def test_scoped_inline_flag_stays_fused(self):
        patterns = (r"^(?i:AS)(\d+)\.example\.com$",
                    r"^(\d+)\.cr\d+\.example\.com$")
        plan = AnnotationPlan("example.com", patterns)
        assert plan.fused is True
        assert plan.extract("as65000.example.com") == 65000


class TestFallbacks:
    """Every condition that pins a plan to the sequential loop."""

    def test_single_pattern_is_not_fused(self):
        plan = AnnotationPlan("example.com", PATTERNS[:1])
        assert plan.fused is False
        assert isinstance(plan.matcher, _SequentialMatcher)
        assert plan.extract("as3356-et0.pop1.example.com") == 3356

    def test_zero_group_pattern_falls_back(self):
        plan = AnnotationPlan("example.com",
                              (r"^as\d+\.example\.com$",) + PATTERNS[:1])
        assert plan.fused is False

    def test_global_inline_flag_falls_back(self):
        plan = AnnotationPlan("example.com",
                              (r"(?i)^as(\d+)\.example\.com$",) + PATTERNS[:1])
        assert plan.fused is False
        # Semantics preserved: the flagged pattern still matches.
        assert plan.extract("AS100.example.com".lower()) == 100

    def test_numbered_backref_falls_back(self):
        plan = AnnotationPlan(
            "example.com",
            (r"^(\d+)-\1\.example\.com$",) + PATTERNS[:1])
        assert plan.fused is False
        assert plan.extract("42-42.example.com") == 42

    def test_named_backref_falls_back(self):
        plan = AnnotationPlan(
            "example.com",
            (r"^(?P<a>\d+)x(?P=a)\.example\.com$",) + PATTERNS[:1])
        assert plan.fused is False

    def test_conditional_group_falls_back(self):
        plan = AnnotationPlan(
            "example.com",
            (r"^(\d+)(-)?(?(2)old)\.example\.com$",) + PATTERNS[:1])
        assert plan.fused is False

    def test_duplicate_named_groups_fall_back(self):
        # Each pattern alone is valid; fusing them would collide on the
        # group name, which only re.compile of the alternation catches.
        plan = AnnotationPlan(
            "example.com",
            (r"^as(?P<asn>\d+)\.example\.com$",
             r"^(?P<asn>\d+)\.cr\d+\.example\.com$"))
        assert plan.fused is False
        assert plan.extract("as7018.example.com") == 7018
        assert plan.extract("7018.cr1.example.com") == 7018

    def test_group_budget_falls_back(self):
        many = tuple(r"^p%d-(\d+)\.example\.com$" % i
                     for i in range(MAX_FUSED_GROUPS))
        assert fuse_patterns(many,
                             tuple(re.compile(p) for p in many)) is None
        plan = AnnotationPlan("example.com", many)
        assert plan.fused is False
        assert plan.extract("p61-3356.example.com") == 3356


class TestFusePatterns:
    def test_returns_none_below_two_patterns(self):
        assert fuse_patterns((), ()) is None
        assert fuse_patterns(PATTERNS[:1],
                             (re.compile(PATTERNS[0]),)) is None

    def test_fused_group_bases_are_original_group_ones(self):
        compiled = tuple(re.compile(p) for p in PATTERNS)
        matcher = fuse_patterns(PATTERNS, compiled)
        assert matcher is not None
        # p1 has 1 group, p2 has 1 group, p3 has 2 groups; each
        # alternative adds a wrapping group.
        assert matcher.bases == (1, 3, 5)
        assert matcher.regex.groups == 7


class TestLazyCompilation:
    def test_warm_compiles_matcher(self):
        plan = AnnotationPlan("example.com", PATTERNS)
        assert plan._matcher is None
        plan.warm()
        assert plan._matcher is not None
        assert plan._compiled is not None

    def test_index_warm_warms_all_plans(self):
        plans = [AnnotationPlan("example%d.com" % i, PATTERNS)
                 for i in range(3)]
        index = DispatchIndex(plans)
        assert index.warm() == 3
        assert all(plan._matcher is not None for plan in plans)

    def test_concurrent_first_access_is_safe(self):
        # Complete-then-publish: racing threads may each compile, but
        # every reader sees either None or a complete matcher and all
        # extractions agree.
        plan = AnnotationPlan("example.com", PATTERNS)
        barrier = threading.Barrier(8)
        results = []
        errors = []

        def hammer():
            barrier.wait()
            try:
                for _ in range(50):
                    results.append(plan.extract("1299.cr2.example.com"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert set(results) == {1299}
        assert plan.fused is True
