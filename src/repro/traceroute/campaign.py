"""Measurement campaigns: vantage points probing every routed prefix.

A campaign stands in for one Ark-style collection cycle.  The number of
vantage points and the per-VP destination coverage are the levers that
grow over the paper's 2010-2020 study period (one of the three factors
behind the growth in figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.topology.asgraph import Tier
from repro.topology.world import World
from repro.traceroute.probe import Prober, TraceSet
from repro.traceroute.routing import RoutingModel
from repro.util.rand import substream


@dataclass
class CampaignConfig:
    """Scale of one measurement campaign."""

    n_vps: int = 20
    dest_per_prefix: int = 2         # probed addresses per edge prefix
    dest_fraction: float = 1.0       # fraction of edge prefixes targeted
    anonymous_rate: float = 0.04
    dest_responds_rate: float = 0.8


def select_vps(world: World, n_vps: int, seed: int) -> List[int]:
    """Choose VP host ASes: diverse access/transit/content networks."""
    rng = substream(seed, "vps")
    graph = world.graph
    pool = [node.asn for node in
            graph.by_tier(Tier.ACCESS) + graph.by_tier(Tier.TRANSIT)
            + graph.by_tier(Tier.CONTENT) + graph.by_tier(Tier.STUB)]
    rng.shuffle(pool)
    return sorted(pool[:min(n_vps, len(pool))])


def run_campaign(world: World, routing: RoutingModel, seed: int,
                 config: Optional[CampaignConfig] = None) -> TraceSet:
    """Probe (a sample of) every AS's edge prefixes from every VP.

    Each walk goes straight into the returned :class:`TraceSet`'s
    columns; a walk with no hops is dropped.
    """
    config = config or CampaignConfig()
    rng = substream(seed, "campaign")
    prober = Prober(world, routing, seed,
                    anonymous_rate=config.anonymous_rate,
                    dest_responds_rate=config.dest_responds_rate)
    vp_asns = select_vps(world, config.n_vps, seed)

    # Destination list: addresses inside each AS's edge prefixes.  For
    # prefixes smaller than the per-prefix target count the clamped
    # offset collapses several indexes onto the same host; ``seen``
    # dedupes so no destination is probed twice from the same VP.
    destinations: List[int] = []
    seen: Set[int] = set()
    for asn in world.graph.asns():
        for prefix in world.plan.edge_prefixes(asn):
            if config.dest_fraction < 1.0 \
                    and rng.random() > config.dest_fraction:
                continue
            for index in range(config.dest_per_prefix):
                # Spread targets across the prefix; skip network address.
                offset = (prefix.size // (config.dest_per_prefix + 1)) \
                    * (index + 1) + 1
                address = prefix.host(min(offset, prefix.size - 1))
                if address not in seen:
                    seen.add(address)
                    destinations.append(address)

    traces = TraceSet()
    for vp_asn in vp_asns:
        routers = world.topology.routers_by_asn[vp_asn]
        cores = [r for r in routers if r.role == "core"]
        vp_router = cores[0] if cores else routers[0]
        for dst_address in destinations:
            walk = prober.walk(vp_asn, vp_router, dst_address)
            if walk is not None and walk[1]:  # walk[1]: its hops
                traces.add(vp_asn, dst_address, vp_router.loc, *walk)
    return traces
