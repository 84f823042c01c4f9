"""Tests for the cheap fan-out machinery: packed chunk IPC, the worker
protocol and its fallbacks, fork-inherited worker services, and
adaptive chunking through the engine."""

import os
from array import array

import pytest

import repro.serve.engine as engine_module
from repro.core.hoiho import Hoiho
from repro.core.io import conventions_to_json
from repro.bench import shadow_divergence_case
from repro.core.parallel import ParallelConfig, fork_inheritance_available
from repro.core.types import TrainingItem
from repro.serve.engine import (
    BulkAnnotator,
    _annotate_chunk,
    _init_annotation_worker,
    _pack_chunk,
    _unpack_item,
)
from repro.serve.memo import DEFAULT_MEMO_SIZE
from repro.serve.service import AnnotationService
from repro.serve.shadow import ShadowService


def learned_result():
    return Hoiho().run([
        TrainingItem("as%d.pop%d.example.com" % (asn, i % 3), asn)
        for i, asn in enumerate([3356, 1299, 174, 2914, 6453])])


def workload(n=100):
    hostnames = []
    for i in range(n):
        if i % 4 == 3:
            hostnames.append("miss%d.unknown.net" % i)
        else:
            hostnames.append("as%d.pop%d.example.com" % (100 + i, i % 3))
    return hostnames


def repeated_workload(n):
    """A stream where every distinct name recurs, so worker memos hit
    (and, at capacity 2, thrash)."""
    distinct = workload(n // 4)
    return [distinct[(i * 7) % len(distinct)] for i in range(n)]


@pytest.fixture
def worker_service():
    """Initialize the module-level worker service, restoring it
    afterwards."""
    saved = engine_module._WORKER_SERVICE
    _init_annotation_worker(conventions_to_json(learned_result()))
    yield engine_module._WORKER_SERVICE
    engine_module._WORKER_SERVICE = saved


@pytest.fixture
def fork_handoff():
    """Save and restore the worker service and the fork parking spot."""
    saved = (engine_module._WORKER_SERVICE, engine_module._FORK_TOKEN,
             engine_module._FORK_SERVICE)
    yield
    (engine_module._WORKER_SERVICE, engine_module._FORK_TOKEN,
     engine_module._FORK_SERVICE) = saved


class TestPacking:
    def test_round_trip(self):
        chunk = ["as100.pop0.example.com", "miss.unknown.net"]
        packed = _pack_chunk(chunk)
        assert isinstance(packed, bytes)
        assert _unpack_item(packed) == chunk

    def test_non_string_item_falls_back_to_list(self):
        chunk = ["a.example.com", 42]
        assert _pack_chunk(chunk) is chunk

    def test_embedded_newline_falls_back_to_list(self):
        chunk = ["a.example.com", "evil\nhost.example.com"]
        assert _pack_chunk(chunk) is chunk

    def test_unencodable_surrogate_falls_back_to_list(self):
        chunk = ["a.example.com", "bad\udc80host"]
        assert _pack_chunk(chunk) is chunk

    def test_unpack_list_copies(self):
        chunk = ["a.example.com"]
        unpacked = _unpack_item(chunk)
        assert unpacked == chunk
        assert unpacked is not chunk

    def test_unicode_hostnames_survive(self):
        chunk = ["xn--bcher-kva.example.com", "bücher.example.com"]
        assert _unpack_item(_pack_chunk(chunk)) == chunk


class TestWorkerProtocol:
    def test_packed_payload_returns_asn_array(self, worker_service):
        chunk = ["as100.pop0.example.com", "miss.unknown.net",
                 "as101.pop1.example.com"]
        result = _annotate_chunk(_pack_chunk(chunk))
        assert isinstance(result, array)
        assert result.typecode == "q"
        assert list(result) == [100, -1, 101]

    def test_list_payload_returns_pairs(self, worker_service):
        chunk = ["as100.pop0.example.com", "miss.unknown.net"]
        result = _annotate_chunk(chunk)
        assert result == [("as100.pop0.example.com", 100),
                          ("miss.unknown.net", None)]

    def test_worker_memo_caches_repeats(self, worker_service):
        memo = worker_service.memo
        _annotate_chunk(_pack_chunk(["as100.pop0.example.com"] * 5))
        assert memo is not None
        assert memo.data["as100.pop0.example.com"] == (100, "example.com")
        assert len(memo.data) == 1
        assert (memo.hits, memo.misses) == (4, 1)

    def test_memo_size_zero_disables_worker_memo(self, fork_handoff):
        _init_annotation_worker(conventions_to_json(learned_result()),
                                memo_size=0)
        assert engine_module._WORKER_SERVICE.memo is None
        result = _annotate_chunk(_pack_chunk(["as100.pop0.example.com"]))
        assert list(result) == [100]

    def test_oversized_asn_falls_back_to_list(self, worker_service):
        # Poison the memo with an ASN beyond the signed-64-bit range so
        # the packed array overflows and the worker ships a plain list.
        worker_service.memo.put("huge.example.com",
                                (2 ** 70, "example.com"))
        result = _annotate_chunk(_pack_chunk(["huge.example.com",
                                              "as100.pop0.example.com"]))
        assert isinstance(result, list)
        assert result == [2 ** 70, 100]


class TestForkInheritance:
    def test_initializer_adopts_parked_service_on_token_match(
            self, fork_handoff):
        parked = AnnotationService(learned_result())
        # A pid that cannot be this process's, as in a forked worker.
        token = (os.getpid() + 1, 1)
        engine_module._FORK_SERVICE = parked
        engine_module._FORK_TOKEN = token
        _init_annotation_worker("{}", fork_token=token)
        assert engine_module._WORKER_SERVICE is parked

    def test_initializer_parses_json_on_token_mismatch(self, fork_handoff):
        parked = AnnotationService(learned_result())
        engine_module._FORK_SERVICE = parked
        engine_module._FORK_TOKEN = (1234, 1)
        _init_annotation_worker(conventions_to_json(learned_result()),
                                fork_token=(1234, 2))
        adopted = engine_module._WORKER_SERVICE
        assert adopted is not parked
        assert adopted.index.suffixes() == parked.index.suffixes()

    def test_parking_process_never_adopts_its_own_service(
            self, fork_handoff):
        # A pool degraded to inline execution runs the initializer in
        # the parent; adopting there would count every chunk twice in
        # the parent's registry.
        parked = AnnotationService(learned_result())
        token = (os.getpid(), 1)
        engine_module._FORK_SERVICE = parked
        engine_module._FORK_TOKEN = token
        _init_annotation_worker(conventions_to_json(learned_result()),
                                fork_token=token)
        assert engine_module._WORKER_SERVICE is not parked

    def test_parking_spot_cleared_after_parallel_run(self):
        service = AnnotationService(learned_result())
        annotator = BulkAnnotator(service,
                                  parallel=ParallelConfig.from_jobs(2),
                                  chunk_size=16)
        list(annotator.annotate(workload(64)))
        assert engine_module._FORK_TOKEN is None
        assert engine_module._FORK_SERVICE is None

    def test_shadow_service_parks_its_primary(self):
        # Shadow comparison stays in the serving process: forked
        # workers annotate with the primary alone, as spawned ones do.
        primary, candidate, hostnames, _ = shadow_divergence_case(n=100)
        shadow = ShadowService(AnnotationService(primary), candidate)
        stream = BulkAnnotator(shadow, parallel=ParallelConfig.from_jobs(2),
                               chunk_size=16).annotate(hostnames)
        first = next(stream)
        if fork_inheritance_available():
            assert engine_module._FORK_SERVICE is shadow.primary
        serial = list(BulkAnnotator(
            AnnotationService(primary)).annotate(hostnames))
        assert [first] + list(stream) == serial


MEMO_SIZES = [0, 2, DEFAULT_MEMO_SIZE]


class TestParallelIdentity:
    @pytest.mark.parametrize("memo_size", MEMO_SIZES)
    def test_packed_parallel_identical_to_serial(self, memo_size):
        hostnames = repeated_workload(200)
        serial = list(BulkAnnotator(AnnotationService(
            learned_result(), memo_size=memo_size)).annotate(hostnames))
        parallel = list(BulkAnnotator(
            AnnotationService(learned_result(), memo_size=memo_size),
            parallel=ParallelConfig.from_jobs(2),
            chunk_size=32).annotate(hostnames))
        assert parallel == serial

    @pytest.mark.parametrize("memo_size", MEMO_SIZES)
    def test_adaptive_chunks_parallel_identical_to_serial(self, memo_size):
        hostnames = repeated_workload(1200)
        serial = list(BulkAnnotator(AnnotationService(
            learned_result(), memo_size=memo_size)).annotate(hostnames))
        parallel = list(BulkAnnotator(
            AnnotationService(learned_result(), memo_size=memo_size),
            parallel=ParallelConfig.from_jobs(2)).annotate(hostnames))
        assert parallel == serial

    def test_unpackable_chunk_still_correct_in_parallel(self):
        # A non-string item forces the legacy list payload for its
        # chunk; results must match the serial path item for item.
        hostnames = workload(40) + [None, 42] + workload(8)
        serial = list(BulkAnnotator(
            AnnotationService(learned_result())).annotate(hostnames))
        parallel = list(BulkAnnotator(
            AnnotationService(learned_result()),
            parallel=ParallelConfig.from_jobs(2),
            chunk_size=8).annotate(hostnames))
        assert parallel == serial

    def test_default_chunk_size_is_adaptive(self):
        annotator = BulkAnnotator(AnnotationService(learned_result()))
        assert annotator.chunk_size is None

    def test_zero_chunk_size_still_rejected(self):
        with pytest.raises(ValueError):
            BulkAnnotator(AnnotationService(learned_result()),
                          chunk_size=0)
