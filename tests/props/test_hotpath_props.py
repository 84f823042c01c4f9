"""Property-based tests (hypothesis) for the annotation hot path.

The serving hot path stacks three optimisations on top of the proven
sequential dispatch loop: fused alternation regexes, the bounded LRU
memo, and the batch fast path that inlines the memo's internals.  Each
must be *result-identical* to the unoptimised reference (a service
without a memo whose plans run the sequential first-match loop of
``tests/reference_matching.py``); these
properties drive random hostname streams -- well-formed, malformed,
trailing-dot, uppercase, unknown-suffix -- through both and require
byte-equal answers, plus the memo-invalidation-on-reload contract.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hoiho import Hoiho
from repro.core.types import TrainingItem
from repro.serve.index import DispatchIndex
from repro.serve.service import AnnotationService
from tests.reference_matching import first_match, sequential_service

# One learned convention set shared by every example (building it is
# the expensive part; the services under test are cheap).
RESULT = Hoiho().run(
    [TrainingItem("as%d.pop%d.example.com" % (asn, i % 3), asn)
     for i, asn in enumerate([3356, 1299, 174, 2914, 6453])]
    + [TrainingItem("%d.cr%d.example.org" % (asn, i % 2), asn)
       for i, asn in enumerate([7018, 3257, 6939, 1239])])

SUFFIXES = ["example.com", "example.org", "example.net", "unknown.ck"]

label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=8)
asn_text = st.integers(min_value=0, max_value=4294967295).map(str)

# Hostnames that plausibly hit a convention: as<NNN>.pop<K>.<suffix>
# and <NNN>.cr<K>.<suffix> shapes over known and unknown suffixes.
convention_like = st.builds(
    lambda asn, pop, suffix, shape: (
        "as%s.pop%s.%s" % (asn, pop, suffix) if shape
        else "%s.cr%s.%s" % (asn, pop, suffix)),
    asn_text, st.integers(min_value=0, max_value=99),
    st.sampled_from(SUFFIXES), st.booleans())

# Arbitrary dotted names, mostly misses.
dotted = st.lists(label, min_size=1, max_size=5).map(".".join)

# Denormalised variants: uppercase, trailing dot, surrounding space.
decorated = st.builds(
    lambda host, upper, trail, pad: (
        (" %s " % host if pad else host).upper() if upper
        else (" %s " % host if pad else host)) + ("." if trail else ""),
    st.one_of(convention_like, dotted),
    st.booleans(), st.booleans(), st.booleans())

# Malformed inputs the service must swallow (annotate as None).
malformed = st.sampled_from([None, "", ".", "...", "   ", 42, 3.5, b"x"])

hostname_stream = st.lists(
    st.one_of(decorated, convention_like, dotted, malformed),
    min_size=0, max_size=40)


def reference_service():
    """The unoptimised oracle: sequential matchers, no memo."""
    return sequential_service(RESULT)


def hot_service(memo_size=256):
    """The full hot path: fused matchers + LRU memo."""
    return AnnotationService(RESULT, memo_size=memo_size)


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(hostname_stream)
def test_hot_path_is_result_identical_one_by_one(hostnames):
    oracle = reference_service()
    hot = hot_service()
    for hostname in hostnames:
        assert hot.annotate_one(hostname) == oracle.annotate_one(hostname)


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(hostname_stream)
def test_hot_path_is_result_identical_in_batch(hostnames):
    oracle = reference_service()
    hot = hot_service()
    assert hot.annotate_batch(hostnames) == \
        oracle.annotate_batch(hostnames)


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(hostname_stream)
def test_tiny_memo_thrashing_never_changes_answers(hostnames):
    # Constant evictions exercise the LRU edge cases; results must
    # still match the uncached oracle.
    oracle = reference_service()
    hot = hot_service(memo_size=2)
    stream = hostnames * 2  # repeats force hit + eviction interleaving
    assert hot.annotate_batch(stream) == oracle.annotate_batch(stream)


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(hostname_stream)
def test_metrics_totals_agree_with_oracle(hostnames):
    oracle = reference_service()
    hot = hot_service()
    oracle.annotate_batch(hostnames)
    hot.annotate_batch(hostnames)
    ours, theirs = hot.stats(), oracle.stats()
    for key in ("requests", "annotated", "misses", "malformed"):
        assert ours["counters"][key] == theirs["counters"][key]
    assert ours["labelled"].get("extracted") == \
        theirs["labelled"].get("extracted")


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(hostname_stream)
def test_reload_invalidated_memo_matches_fresh_service(hostnames):
    # After a reload, a service that served arbitrary traffic must be
    # indistinguishable from a brand-new service: no stale entries.
    warmed = hot_service()
    warmed.annotate_batch(hostnames)
    warmed.reload_result(RESULT)
    fresh = hot_service()
    assert warmed.annotate_batch(hostnames) == \
        fresh.annotate_batch(hostnames)
    assert len(warmed.memo) == len(fresh.memo)


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.lists(st.one_of(convention_like, dotted),
                min_size=0, max_size=30))
def test_fused_plan_extract_matches_sequential(hostnames):
    # Plan-level check, below the service: each served plan agrees
    # with the loop over its patterns on every already-normalised
    # hostname.
    index = DispatchIndex.from_result(RESULT)
    for suffix in ("example.com", "example.org"):
        plan = index.plan_for(suffix)
        if plan is None:
            continue
        for hostname in hostnames:
            assert plan.extract(hostname.lower()) == \
                first_match(plan.patterns, hostname.lower())
