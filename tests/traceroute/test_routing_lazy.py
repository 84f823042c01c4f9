"""Lazy vs eager routing-model equivalence.

The lazy model must answer every (src, dst) query exactly as the eager
model does -- same next hops, same paths, same reachability -- while
computing only the destinations actually queried.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.world import WorldConfig, generate_world
from repro.traceroute.routing import RoutingModel


@pytest.fixture(scope="module")
def world():
    return generate_world(7, WorldConfig.tiny())


@pytest.fixture(scope="module")
def eager(world):
    return RoutingModel(world.graph, eager=True)


class TestLazyEquivalence:
    def test_all_pairs_next_hop(self, world, eager):
        lazy = RoutingModel(world.graph)
        asns = world.graph.asns()
        for src in asns:
            for dst in asns:
                assert lazy.next_hop(src, dst) == eager.next_hop(src, dst)

    def test_all_pairs_paths(self, world, eager):
        lazy = RoutingModel(world.graph)
        asns = world.graph.asns()
        for src in asns[::3]:
            for dst in asns:
                assert lazy.as_path(src, dst) == eager.as_path(src, dst)

    def test_unknown_destination(self, world, eager):
        lazy = RoutingModel(world.graph)
        src = world.graph.asns()[0]
        assert lazy.next_hop(src, 999999) is None
        assert lazy.next_hop(src, 999999) == eager.next_hop(src, 999999)

    def test_lazy_computes_only_queried(self, world):
        lazy = RoutingModel(world.graph)
        assert lazy.computed_destinations == 0
        asns = world.graph.asns()
        lazy.next_hop(asns[0], asns[1])
        assert lazy.computed_destinations == 1
        lazy.next_hop(asns[2], asns[1])  # same dst: memoised
        assert lazy.computed_destinations == 1

    def test_eager_computes_everything(self, world, eager):
        assert eager.computed_destinations == len(world.graph.asns())

    def test_precompute_subset_and_chaining(self, world):
        asns = world.graph.asns()
        lazy = RoutingModel(world.graph).precompute(asns[:4])
        assert lazy.computed_destinations == 4
        assert lazy.precompute() is lazy
        assert lazy.computed_destinations == len(asns)

    def test_precompute_ignores_unknown(self, world):
        lazy = RoutingModel(world.graph).precompute([999999])
        assert lazy.computed_destinations == 0

    def test_lazy_pickle_smaller_than_eager(self, world, eager):
        lazy = RoutingModel(world.graph)
        asns = world.graph.asns()
        lazy.next_hop(asns[0], asns[1])
        assert len(pickle.dumps(lazy)) < len(pickle.dumps(eager))

    def test_pickled_lazy_model_answers_identically(self, world, eager):
        lazy = RoutingModel(world.graph)
        asns = world.graph.asns()
        lazy.next_hop(asns[0], asns[-1])
        clone = pickle.loads(pickle.dumps(lazy))
        for src in asns[:6]:
            for dst in asns:
                assert clone.next_hop(src, dst) == eager.next_hop(src, dst)


class TestLazyEquivalenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_queries_match_eager(self, data, world, eager):
        asns = world.graph.asns()
        lazy = RoutingModel(world.graph)
        picks = data.draw(st.lists(
            st.tuples(st.sampled_from(asns), st.sampled_from(asns)),
            min_size=1, max_size=12))
        for src, dst in picks:
            assert lazy.next_hop(src, dst) == eager.next_hop(src, dst)
            assert lazy.as_path(src, dst) == eager.as_path(src, dst)
            assert lazy.reachable(src, dst) == eager.reachable(src, dst)


def _next_hop_walk(model, src, dst, max_len):
    """The AS path by one :meth:`RoutingModel.next_hop` call per step."""
    if src == dst:
        return [src]
    path, current = [src], src
    for _ in range(max_len):
        nxt = model.next_hop(current, dst)
        if nxt is None:
            return None
        path.append(nxt)
        if nxt == dst:
            return path
        current = nxt
    return None


class TestAsPathIsNextHopWalk:
    """``as_path`` reads the next-hop vector once; it must equal the
    step-by-step ``next_hop`` walk, on lazy and eager models alike."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_as_path_equals_next_hop_walk(self, data, world, eager):
        asns = world.graph.asns()
        lazy = RoutingModel(world.graph)
        picks = data.draw(st.lists(
            st.tuples(st.sampled_from(asns),
                      st.one_of(st.sampled_from(asns), st.just(999999)),
                      st.integers(0, 6)),
            min_size=1, max_size=12))
        for src, dst, max_len in picks:
            for model in (lazy, eager):
                assert model.as_path(src, dst, max_len) \
                    == _next_hop_walk(model, src, dst, max_len)
                assert model.as_path(src, dst) \
                    == _next_hop_walk(model, src, dst, 32)

    def test_unknown_destination_and_cut_off(self, world, eager):
        asns = world.graph.asns()
        lazy = RoutingModel(world.graph)
        assert lazy.as_path(asns[0], 999999) is None
        assert lazy.computed_destinations == 0
        src, dst = next((s, d) for s in asns for d in asns
                        if len(eager.as_path(s, d) or ()) >= 3)
        hops = len(eager.as_path(src, dst)) - 1
        for model in (lazy, eager):
            assert model.as_path(src, dst, hops) == eager.as_path(src, dst)
            assert model.as_path(src, dst, hops - 1) is None
            assert _next_hop_walk(model, src, dst, hops - 1) is None
