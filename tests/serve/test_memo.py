"""Tests for the Zipf-aware annotation memo: the bounded LRU itself,
its integration with :class:`AnnotationService`, and the
invalidate-on-reload contract."""

import pytest

from repro.core.hoiho import Hoiho
from repro.core.types import TrainingItem
from repro.serve.memo import ABSENT, DEFAULT_MEMO_SIZE, AnnotationMemo
from repro.serve.service import AnnotationService


def learned_result(suffix="example.com"):
    return Hoiho().run([
        TrainingItem("as%d.pop%d.%s" % (asn, i % 3, suffix), asn)
        for i, asn in enumerate([3356, 1299, 174, 2914, 6453])])


class TestAnnotationMemo:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AnnotationMemo(0)
        with pytest.raises(ValueError):
            AnnotationMemo(-1)

    def test_get_put_round_trip(self):
        memo = AnnotationMemo(4)
        assert memo.data.get("a.example.com", ABSENT) is ABSENT
        memo.put("a.example.com", (3356, "example.com"))
        assert memo.data.get("a.example.com", ABSENT) == \
            (3356, "example.com")
        # Probes are counted by the service kernel, never by the memo.
        assert memo.hits == 0
        assert memo.misses == 0

    def test_negative_caching(self):
        # Misses are cached too: (None, None) is a first-class entry,
        # distinct from ABSENT.
        memo = AnnotationMemo(4)
        memo.put("www.unknown.net", (None, None))
        assert memo.data.get("www.unknown.net", ABSENT) == (None, None)

    def test_lru_eviction_order(self):
        memo = AnnotationMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("c", 3)           # evicts a, the least recent
        assert list(memo.data) == ["b", "c"]
        memo.put("d", 4)           # evicts b
        assert list(memo.data) == ["c", "d"]
        assert memo.evictions == 2
        assert len(memo) == 2

    def test_put_existing_key_refreshes_without_eviction(self):
        memo = AnnotationMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 10)          # update, not insert
        memo.put("c", 3)           # evicts b, not a
        assert dict(memo.data) == {"a": 10, "c": 3}
        assert memo.evictions == 1

    def test_clear_resets_entries_not_counters(self):
        memo = AnnotationMemo(2)
        for key in "abc":
            memo.put(key, 1)
        memo.hits += 1             # as the service kernel banks a hit
        memo.clear()
        assert len(memo) == 0
        assert memo.hits == 1      # counters are cumulative
        assert memo.evictions == 1

    def test_stats_shape(self):
        memo = AnnotationMemo(8)
        memo.put("a", 1)
        memo.hits += 1             # as the service kernel banks its
        memo.misses += 1           # probes of "a" and "b"
        stats = memo.stats()
        assert stats["size"] == 1
        assert stats["capacity"] == 8
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["hit_rate"] == 0.5


class TestServiceMemo:
    def test_default_service_has_memo(self):
        service = AnnotationService(learned_result())
        assert service.memo is not None
        assert service.memo.capacity == DEFAULT_MEMO_SIZE

    def test_memo_size_zero_disables(self):
        service = AnnotationService(learned_result(), memo_size=0)
        assert service.memo is None
        assert service.annotate_one("as8075.pop9.example.com") == 8075
        assert service.stats()["memo"] is None
        assert service.stats()["counters"]["memo_hits"] == 0

    def test_repeat_annotate_one_hits_memo(self):
        service = AnnotationService(learned_result())
        for _ in range(3):
            assert service.annotate_one("as8075.pop9.example.com") == 8075
        stats = service.stats()
        assert stats["counters"]["memo_hits"] == 2
        assert stats["counters"]["memo_misses"] == 1
        assert stats["memo"]["size"] == 1
        # Hits still count as annotated + extracted.
        assert stats["counters"]["annotated"] == 3
        assert stats["labelled"]["extracted"]["example.com"] == 3

    def test_batch_hits_memo(self):
        service = AnnotationService(learned_result())
        hostnames = ["as8075.pop9.example.com", "www.unknown.net"] * 5
        results = service.annotate_batch(hostnames)
        assert results == [8075, None] * 5
        stats = service.stats()
        assert stats["counters"]["memo_hits"] == 8
        assert stats["counters"]["memo_misses"] == 2
        assert stats["counters"]["annotated"] == 5
        assert stats["counters"]["misses"] == 5

    def test_malformed_inputs_never_reach_memo(self):
        service = AnnotationService(learned_result())
        assert service.annotate_batch([None, "", "..", 42]) == [None] * 4
        stats = service.stats()
        assert stats["counters"]["malformed"] == 4
        assert stats["memo"]["size"] == 0

    def test_memo_entries_key_on_normalized_hostname(self):
        service = AnnotationService(learned_result())
        assert service.annotate_one("as8075.pop9.example.com") == 8075
        assert service.annotate_one("AS8075.pop9.Example.COM.") == 8075
        stats = service.stats()
        assert stats["memo"]["size"] == 1
        assert stats["counters"]["memo_hits"] == 1

    def test_hit_refreshes_recency(self):
        service = AnnotationService(learned_result(), memo_size=2)
        for asn in (100, 101, 100, 102):   # the hit on 100 makes 101 LRU
            service.annotate_one("as%d.pop0.example.com" % asn)
        assert list(service.memo.data) == ["as100.pop0.example.com",
                                           "as102.pop0.example.com"]
        assert service.stats()["counters"]["memo_hits"] == 1

    def test_tiny_memo_evicts(self):
        service = AnnotationService(learned_result(), memo_size=2)
        for i in range(5):
            service.annotate_one("as%d.pop0.example.com" % (100 + i))
        stats = service.stats()
        assert stats["memo"]["size"] == 2
        assert stats["counters"]["memo_evictions"] == 3

    def test_reload_invalidates_memo(self):
        service = AnnotationService(learned_result("example.com"))
        assert service.annotate_one("as100.pop1.example.com") == 100
        old_memo = service.memo
        service.reload_result(learned_result("example.org"))
        # Fresh memo: the stale cached answer cannot survive the swap.
        assert service.memo is not old_memo
        assert len(service.memo) == 0
        assert service.annotate_one("as100.pop1.example.com") is None
        assert service.annotate_one("as100.pop1.example.org") == 100

    def test_reload_keeps_counters_cumulative(self):
        service = AnnotationService(learned_result())
        for _ in range(3):
            service.annotate_one("as8075.pop9.example.com")
        before = service.stats()["counters"]
        assert before["memo_hits"] == 2
        service.reload_result(learned_result())
        after = service.stats()["counters"]
        # Retired totals survive the memo swap; counters never regress.
        assert after["memo_hits"] == 2
        assert after["memo_misses"] == 1
        for _ in range(2):
            service.annotate_one("as8075.pop9.example.com")
        final = service.stats()["counters"]
        assert final["memo_hits"] == 3      # 2 retired + 1 fresh
        assert final["memo_misses"] == 2    # 1 retired + 1 fresh

    def test_stats_reports_fused_plans(self):
        service = AnnotationService(learned_result())
        stats = service.stats()
        assert stats["suffixes_indexed"] == 1
        assert stats["fused_plans"] in (0, 1)
        assert stats["fused_plans"] == service.index.fused_plans()
