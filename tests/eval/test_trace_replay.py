"""RTAA campaigns walk observed only, and their traces replay on read.

RouterToAsAssignment reads the alias resolution and the route table, not
hop sequences, so an RTAA snapshot's campaign collects only the observed
addresses, and ``SnapshotResult.traces`` replays the whole campaign on
first read under a ``snapshot.replay`` span.  The two walk modes must
agree on everything both produce: the observed set, the span counts and
the destination reply draws; and a replay must equal the campaign walked
with columns, serially or from worker processes.  No body pickles its
traces or its naming records: the traces replay and the naming is
re-derived on first read.
"""

import io
import pickle

import pytest

from repro.core.parallel import ParallelConfig
from repro.eval.timeline import _timeline_tasks, build_timeline
from repro.obs.trace import Tracer
from repro.pipeline import METHOD_RTAA
from repro.topology.world import WorldConfig, generate_world
from repro.traceroute.campaign import campaign_destinations, \
    run_campaign, select_vps, vp_router
from repro.traceroute.probe import ANONYMOUS, Prober, TraceSet
from repro.traceroute.routing import RoutingModel

SEED = 2020
RTAA_LABELS = ["2016-09", "2017-02"]


@pytest.fixture(scope="module")
def world():
    return generate_world(SEED, WorldConfig.tiny())


def _spans(tracer, name):
    return [r for r in tracer.records if r["name"] == name]


def _walk(world, routing, spec, sink):
    """The campaign of ``spec`` walked into ``sink`` by a prober of its
    own; returns the summed (walks, rows) and the prober."""
    config = spec.build_config().campaign
    prober = Prober(world, routing, spec.seed,
                    anonymous_rate=config.anonymous_rate,
                    dest_responds_rate=config.dest_responds_rate)
    groups = prober.targets(campaign_destinations(world, spec.seed, config))
    walks = rows = 0
    for vp_asn in select_vps(world, config.n_vps, spec.seed):
        walked, written = prober.walk_groups(
            sink, vp_asn, vp_router(world, vp_asn), groups)
        walks += walked
        rows += written
    return (walks, rows), prober


class TestEveryTinySet:
    @pytest.fixture(scope="class")
    def built(self, world):
        routing = RoutingModel(world.graph)
        tracer = Tracer()
        sets = build_timeline(world, SEED, routing, include_pdb=False,
                              tracer=tracer)
        return routing, tracer, sets

    def test_only_rtaa_results_defer_their_traces(self, built):
        _, _, sets = built
        assert len(sets) == 17
        for training_set in sets:
            deferred = "traces" not in vars(training_set.snapshot)
            assert deferred == (training_set.method == METHOD_RTAA)

    def test_modes_agree_on_observed_counts_and_draws(self, world):
        routing = RoutingModel(world.graph)
        for task in _timeline_tasks(world, SEED, routing, None, False):
            traces, observed = TraceSet(), set()
            counts, columns = _walk(world, routing, task.spec, traces)
            assert _walk(world, routing, task.spec, observed)[0] == counts
            assert counts[1] == len(traces)
            assert observed == set(traces.hops)
            _, observed_only = _walk(world, routing, task.spec, set())
            assert list(observed_only._dest_resp_cache.items()) \
                == list(columns._dest_resp_cache.items())

    def test_replays_equal_campaigns_with_columns(self, world, built):
        for training_set in built[2]:
            spec = training_set.snapshot.spec
            assert training_set.snapshot.traces == run_campaign(
                world, RoutingModel(world.graph), spec.seed,
                spec.build_config().campaign), spec.label

    def test_observed_equals_the_replays_hops(self, world, built):
        routing, _, sets = built
        for training_set in sets:
            result = training_set.snapshot
            observed = set()
            _walk(world, routing, result.spec, observed)
            observed.discard(ANONYMOUS)
            assert observed == set(result.traces.hops) - {ANONYMOUS}

    def test_replay_spans_count_as_the_campaign_did(self, built):
        _, tracer, sets = built
        for training_set in sets:
            training_set.snapshot.traces
        campaigns = {}
        by_id = {r["id"]: r for r in tracer.records}
        for record in _spans(tracer, "snapshot.campaign"):
            parent = record
            while parent["name"] != "snapshot":
                parent = by_id[parent["parent"]]
            campaigns[parent["attrs"]["snapshot"]] = record["attrs"]
        replays = _spans(tracer, "snapshot.replay")
        assert sorted(r["attrs"]["snapshot"] for r in replays) \
            == sorted(t.label for t in sets if t.method == METHOD_RTAA)
        for record in replays:
            assert record["attrs"]["traces"] \
                == campaigns[record["attrs"]["snapshot"]]["traces"]
            assert record["attrs"]["walks"] \
                == campaigns[record["attrs"]["snapshot"]]["walks"]

    def test_replay_uses_the_builds_routing(self, built):
        routing, _, sets = built
        solved = routing.computed_destinations
        for training_set in sets:
            assert training_set.snapshot._routing is routing
            training_set.snapshot.traces
        assert routing.computed_destinations == solved


def test_parallel_timeline_replays_serial_traces(world):
    routing = RoutingModel(world.graph)
    serial = build_timeline(world, SEED, routing, itdk_labels=RTAA_LABELS,
                            include_pdb=False)
    parallel = build_timeline(
        world, SEED, routing, itdk_labels=RTAA_LABELS, include_pdb=False,
        parallel=ParallelConfig(workers=2, backend="process", chunk_size=1))
    for a, b in zip(serial, parallel):
        assert "traces" not in vars(b.snapshot)
        assert b.snapshot._routing is routing
        assert len(b.snapshot.traces)
        assert b.snapshot.traces == a.snapshot.traces


class TestStoredBody:
    @pytest.fixture(scope="class")
    def timeline(self, world):
        return build_timeline(world, SEED,
                              itdk_labels=["2017-02", "2020-01"],
                              include_pdb=False)

    def test_no_body_holds_trace_columns_or_naming_records(self,
                                                           timeline):
        for training_set in timeline:
            body = training_set.__getstate__()["body"]
            assert b"TraceSet" not in body, training_set.method
            assert b"HostnameRecord" not in body, training_set.method
            state = _StoredState.of(body)
            assert "traces" not in state and "naming" not in state

    def test_rtaa_body_replays_equal_traces(self, world, timeline):
        again = pickle.loads(pickle.dumps(timeline[0]))
        tracer = Tracer()
        again.adopt(world, tracer)
        result = again.snapshot
        assert "traces" not in vars(result)
        assert result.traces == timeline[0].snapshot.traces
        assert [r["attrs"]["snapshot"]
                for r in _spans(tracer, "snapshot.replay")] == ["2017-02"]

    def test_bdrmapit_body_replays_equal_traces(self, world, timeline):
        again = pickle.loads(pickle.dumps(timeline[1]))
        tracer = Tracer()
        again.adopt(world, tracer)
        result = again.snapshot
        assert "traces" not in vars(result)
        assert result.traces == timeline[1].snapshot.traces
        assert result.traces is result.traces
        assert [r["attrs"]["snapshot"]
                for r in _spans(tracer, "snapshot.replay")] == ["2020-01"]


class _StoredState(pickle.Unpickler):
    """Unpickles a body with its ``SnapshotResult`` replaced by a class
    that keeps the state as stored."""

    class _Kept:
        def __setstate__(self, state):
            self.state = state

    def find_class(self, module, name):
        if name == "SnapshotResult":
            return self._Kept
        return super().find_class(module, name)

    @classmethod
    def of(cls, body):
        return cls(io.BytesIO(body)).load().state
