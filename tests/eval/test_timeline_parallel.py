"""Parallel snapshot fan-out determinism.

The tentpole guarantee: a timeline built through worker processes is
byte-identical to the serially built one.  The TINY-scale test runs in
the tier-1 suite; the full 19-set SMALL-scale proof carries the ``slow``
marker (``make test-slow`` / ``pytest -m slow``).
"""

import pytest

from repro.core.io import training_to_jsonl
from repro.core.parallel import ParallelConfig
from repro.eval.timeline import build_timeline
from repro.traceroute.probe import TraceSet
from repro.topology.world import WorldConfig, generate_world


def _fingerprint(sets):
    """A byte-exact rendering of everything the learner consumes."""
    return [(t.label, t.kind, t.method, t.year, training_to_jsonl(t.items))
            for t in sets]


def _assert_identical(serial, parallel):
    assert _fingerprint(serial) == _fingerprint(parallel)
    for a, b in zip(serial, parallel):
        if a.snapshot is None:
            assert b.snapshot is None
            continue
        assert b.snapshot is not None
        assert a.snapshot.annotations == b.snapshot.annotations
        assert a.snapshot.snapshot.hostnames == b.snapshot.snapshot.hostnames
        # Worker replies carry the traces as columns and no graph, so
        # this side derives the graph again from them.
        for name, a_column, b_column in zip(TraceSet.__slots__,
                                            a.snapshot.traces.columns(),
                                            b.snapshot.traces.columns()):
            if name == "rtts":  # NaN marks a missing RTT; NaN != NaN
                a_column, b_column = a_column.tobytes(), b_column.tobytes()
            assert a_column == b_column, name
        assert a.snapshot.graph.states == b.snapshot.graph.states
        assert a.snapshot.graph.ixp_subsequent \
            == b.snapshot.graph.ixp_subsequent


class TestParallelTimelineTiny:
    def test_parallel_identical_to_serial(self):
        world = generate_world(31, WorldConfig.tiny())
        labels = ["2017-02", "2019-01", "2020-01"]
        serial = build_timeline(world, 31, itdk_labels=labels)
        parallel = build_timeline(
            world, 31, itdk_labels=labels,
            parallel=ParallelConfig(workers=2, backend="process",
                                    chunk_size=1))
        _assert_identical(serial, parallel)
        # Worker replies pickle without the world; the caller's own
        # world is re-attached to each.
        assert all(t.snapshot.world is world
                   for t in parallel if t.kind == "itdk")

    def test_serial_config_matches_default(self):
        world = generate_world(31, WorldConfig.tiny())
        default = build_timeline(world, 31, itdk_labels=["2020-01"])
        explicit = build_timeline(world, 31, itdk_labels=["2020-01"],
                                  parallel=ParallelConfig.serial())
        _assert_identical(default, explicit)


@pytest.mark.slow
class TestParallelTimelineSmall:
    def test_full_19_set_timeline_identical(self):
        world = generate_world(2020, WorldConfig.small())
        serial = build_timeline(world, 2020)
        parallel = build_timeline(
            world, 2020,
            parallel=ParallelConfig(workers=4, backend="process",
                                    chunk_size=1))
        assert len(serial) == 19
        _assert_identical(serial, parallel)
