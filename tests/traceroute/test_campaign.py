"""Unit tests for measurement campaigns."""

import pytest

from repro.topology.world import WorldConfig, generate_world
from repro.traceroute.campaign import CampaignConfig, run_campaign, select_vps
from repro.traceroute.routing import RoutingModel


@pytest.fixture(scope="module")
def world():
    return generate_world(42, WorldConfig.tiny())


@pytest.fixture(scope="module")
def routing(world):
    return RoutingModel(world.graph)


class TestSelectVps:
    def test_count(self, world):
        assert len(select_vps(world, 5, 1)) == 5

    def test_capped_by_pool(self, world):
        vps = select_vps(world, 10000, 1)
        assert len(vps) <= len(world.graph.nodes)

    def test_deterministic(self, world):
        assert select_vps(world, 5, 1) == select_vps(world, 5, 1)

    def test_seed_sensitivity(self, world):
        assert select_vps(world, 5, 1) != select_vps(world, 5, 2)

    def test_vps_are_real_ases(self, world):
        for asn in select_vps(world, 8, 3):
            assert asn in world.graph.nodes


def test_routing_model_finds_a_path(world, routing):
    asns = world.graph.asns()
    assert routing.as_path(asns[0], asns[-1]) is not None


class TestRunCampaign:
    def test_produces_traces(self, world, routing):
        traces = run_campaign(world, routing, 9,
                              CampaignConfig(n_vps=4))
        assert traces
        vp_asns = {t.vp_asn for t in traces}
        assert len(vp_asns) == 4

    def test_scales_with_vps(self, world, routing):
        few = run_campaign(world, routing, 9, CampaignConfig(n_vps=2))
        many = run_campaign(world, routing, 9, CampaignConfig(n_vps=6))
        assert len(many) > len(few)

    def test_dest_fraction(self, world, routing):
        full = run_campaign(world, routing, 9,
                            CampaignConfig(n_vps=2, dest_fraction=1.0))
        half = run_campaign(world, routing, 9,
                            CampaignConfig(n_vps=2, dest_fraction=0.4))
        assert len(half) < len(full)

    def test_dests_inside_edge_prefixes(self, world, routing):
        traces = run_campaign(world, routing, 9, CampaignConfig(n_vps=2))
        for trace in traces[:50]:
            assert world.origin(trace.dst_address) == trace.dst_asn

    def test_deterministic(self, world, routing):
        a = run_campaign(world, routing, 9, CampaignConfig(n_vps=3))
        b = run_campaign(world, routing, 9, CampaignConfig(n_vps=3))
        assert [(t.dst_address, t.hops) for t in a] == \
            [(t.dst_address, t.hops) for t in b]

    def test_destinations_unique_per_vp(self, world, routing):
        # Regression: when dest_per_prefix exceeds a prefix's size the
        # clamped offset used to collapse several indexes onto the same
        # host, probing one destination many times from each VP.
        traces = run_campaign(world, routing, 9,
                              CampaignConfig(n_vps=1, dest_per_prefix=5000))
        destinations = [t.dst_address for t in traces]
        assert destinations
        assert len(destinations) == len(set(destinations))

    def test_dedupe_keeps_all_distinct_targets(self, world, routing):
        # Deduplication must not drop genuinely distinct destinations:
        # with per-prefix targets far below any prefix size, the trace
        # count is unchanged by the dedupe pass.
        config = CampaignConfig(n_vps=2, dest_per_prefix=2)
        traces = run_campaign(world, routing, 9, config)
        per_vp = {}
        for trace in traces:
            per_vp.setdefault(trace.vp_asn, []).append(trace.dst_address)
        for dsts in per_vp.values():
            assert len(dsts) == len(set(dsts))
