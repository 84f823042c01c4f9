"""Tests for the parallel execution policy and deterministic fan-out."""

import pytest

from repro.core.hoiho import Hoiho, HoihoConfig
from repro.core.io import conventions_to_json
from repro.core.parallel import (
    ADAPTIVE_CHUNK_MAX,
    ADAPTIVE_CHUNK_MIN,
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    ParallelConfig,
    adaptive_chunks,
    default_workers,
    fork_inheritance_available,
    parallel_map,
    stream_map,
)
from repro.core.resilience import PoisonItemError, RetryPolicy
from repro.core.types import TrainingItem
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Tracer


def _small_world_items():
    """A small multi-suffix world: mixed formats, noise, and hazards."""
    items = []
    for index, suffix in enumerate(("alpha.com", "beta.net", "gamma.org",
                                    "delta.io", "epsilon.de")):
        base = 3000 + 613 * index
        for i in range(8):
            items.append(TrainingItem(
                "as%d-10ge-pop%d.%s" % (base + 17 * i, i % 3, suffix),
                base + 17 * i))
        for i in range(4):
            items.append(TrainingItem(
                "fra%d.cust.as%d.%s" % (i % 2, base + 500 + 7 * i, suffix),
                base + 500 + 7 * i))
        for i in range(3):
            items.append(TrainingItem("lo0.cr%d.%s" % (i, suffix), base))
    # A suffix that must be rejected (single training ASN).
    items += [TrainingItem("as64500.pop%d.zeta.fr" % i, 64500)
              for i in range(6)]
    return items


class TestParallelConfig:
    def test_defaults_are_serial(self):
        config = ParallelConfig()
        assert not config.is_parallel
        assert config.backend == BACKEND_SERIAL

    def test_from_jobs_serial(self):
        assert not ParallelConfig.from_jobs(1).is_parallel

    def test_from_jobs_negative_rejected(self):
        # Regression: -1 used to silently mean serial, hiding typos.
        with pytest.raises(ValueError, match="--jobs"):
            ParallelConfig.from_jobs(-1)
        with pytest.raises(ValueError):
            ParallelConfig.from_jobs(-3)

    def test_from_jobs_parallel(self):
        config = ParallelConfig.from_jobs(4)
        assert config.is_parallel
        assert config.workers == 4
        assert config.backend == BACKEND_PROCESS

    def test_from_jobs_zero_means_all_cpus(self):
        config = ParallelConfig.from_jobs(0)
        assert config.workers == default_workers()

    def test_single_worker_process_backend_stays_inline(self):
        assert not ParallelConfig(workers=1,
                                  backend=BACKEND_PROCESS).is_parallel

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(backend="threads")
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(chunk_size=0)


def _square(value):
    return value * value


class TestParallelMap:
    def test_serial_order(self):
        config = ParallelConfig.serial()
        assert parallel_map(_square, [3, 1, 2], config) == [9, 1, 4]

    def test_process_order(self):
        config = ParallelConfig(workers=2, backend=BACKEND_PROCESS,
                                chunk_size=1)
        assert parallel_map(_square, list(range(7)), config) == \
            [v * v for v in range(7)]

    def test_single_item_stays_inline(self):
        config = ParallelConfig(workers=2, backend=BACKEND_PROCESS)
        assert parallel_map(_square, [5], config) == [25]


class TestDeterminism:
    def test_parallel_run_datasets_identical_to_serial(self):
        """Acceptance: parallel conventions byte-identical to serial."""
        items = _small_world_items()
        serial = Hoiho().run(items)
        parallel = Hoiho(parallel=ParallelConfig(
            workers=2, backend=BACKEND_PROCESS, chunk_size=1)).run(items)
        assert conventions_to_json(parallel) == conventions_to_json(serial)
        assert parallel.suffixes_examined == serial.suffixes_examined
        assert {s: c.patterns() for s, c in parallel.conventions.items()} \
            == {s: c.patterns() for s, c in serial.conventions.items()}

    def test_parallel_run_datasets_with_config(self):
        items = _small_world_items()
        config = HoihoConfig(enable_classes=False)
        serial = Hoiho(config).run(items)
        parallel = Hoiho(config, parallel=ParallelConfig(
            workers=3, backend=BACKEND_PROCESS)).run(items)
        assert conventions_to_json(parallel) == conventions_to_json(serial)

    def test_run_datasets_accepts_unsorted_input(self):
        items = _small_world_items()
        forward = Hoiho().run(items)
        backward = Hoiho(parallel=ParallelConfig(
            workers=2, backend=BACKEND_PROCESS)).run(list(reversed(items)))
        assert conventions_to_json(forward) == conventions_to_json(backward)


class TestAdaptiveChunks:
    def test_doubling_ramp_schedule(self):
        sizes = [len(c) for c in adaptive_chunks(range(70), start=4,
                                                 limit=16)]
        # 4, 8, 16, 16, ... then the remainder.
        assert sizes == [4, 8, 16, 16, 16, 10]

    def test_ramp_caps_at_limit(self):
        sizes = [len(c) for c in adaptive_chunks(range(2000), start=512,
                                                 limit=512)]
        assert sizes == [512, 512, 512, 464]

    def test_defaults_ramp_from_min_to_max(self):
        n = ADAPTIVE_CHUNK_MIN + ADAPTIVE_CHUNK_MAX + 7
        sizes = [len(c) for c in adaptive_chunks(range(n))]
        assert sizes[0] == ADAPTIVE_CHUNK_MIN
        assert max(sizes) <= ADAPTIVE_CHUNK_MAX
        assert sum(sizes) == n

    def test_preserves_order_and_items(self):
        items = list(range(100))
        chained = [x for chunk in adaptive_chunks(items, start=3, limit=7)
                   for x in chunk]
        assert chained == items

    def test_empty_input_yields_nothing(self):
        assert list(adaptive_chunks([])) == []

    def test_deterministic(self):
        first = list(adaptive_chunks(range(500), start=8, limit=64))
        second = list(adaptive_chunks(range(500), start=8, limit=64))
        assert first == second

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            list(adaptive_chunks([1], start=0, limit=4))
        with pytest.raises(ValueError):
            list(adaptive_chunks([1], start=8, limit=4))


class TestForkInheritance:
    def test_matches_start_method(self):
        import multiprocessing
        expected = multiprocessing.get_start_method() == "fork"
        assert fork_inheritance_available() is expected


# -- the dispatch contract ---------------------------------------------------

def _traced_square(value, tracer=NULL_TRACER):
    with tracer.span("item", value=value):
        return value * value


def _reject_two(value, tracer=NULL_TRACER):
    with tracer.span("item", value=value):
        if value == 2:
            raise ValueError("item 2 is bad")
        return value


def _stream(func, items, config, retry, span):
    """``stream_map`` whose consumer holds a span of its own open
    across every pull after the first."""
    stream = stream_map(func, items, config, retry=retry, span=span)
    values = [next(stream)]
    with span.tracer.span("consumer") if span.span_id else NULL_SPAN:
        values.extend(stream)
    return values


def _map(func, items, config, retry, span):
    return parallel_map(func, items, config, retry=retry, span=span)


DISPATCH_CONFIGS = {
    "serial": ParallelConfig.serial(),
    "process": ParallelConfig(workers=2, backend=BACKEND_PROCESS,
                              chunk_size=2),
}


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("retry", [None, RetryPolicy(backoff_base=0.0)],
                         ids=["no-retry", "retry"])
@pytest.mark.parametrize("backend", sorted(DISPATCH_CONFIGS))
@pytest.mark.parametrize("primitive", [_map, _stream],
                         ids=["parallel_map", "stream_map"])
def test_dispatch_contract(primitive, backend, retry, traced):
    """Every route returns what a plain loop returns, fails the same
    way, and parents each item's root span under the fan-out's span."""
    config = DISPATCH_CONFIGS[backend]
    items = list(range(7))
    tracer = Tracer() if traced else NULL_TRACER
    with tracer.span("fan") as span:
        values = primitive(_traced_square, items, config, retry, span)
    assert values == [_traced_square(x) for x in items]
    if traced:
        roots = [r for r in tracer.records if r["name"] == "item"]
        assert sorted(r["attrs"]["value"] for r in roots) == items
        assert all(r["parent"] == span.span_id for r in roots)

    expected = ValueError if retry is None else PoisonItemError
    with pytest.raises(expected) as info:
        with tracer.span("fan") as span:
            primitive(_reject_two, items, config, retry, span)
    if retry is not None:
        assert isinstance(info.value.cause, ValueError)
        assert info.value.index == 2
