"""Measurement campaigns: vantage points probing every routed prefix.

A campaign stands in for one Ark-style collection cycle.  The number of
vantage points and the per-VP destination coverage are the levers that
grow over the paper's 2010-2020 study period (one of the three factors
behind the growth in figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Union

from repro.obs.trace import NULL_SPAN
from repro.topology.asgraph import Tier
from repro.topology.routers import Router
from repro.topology.world import World
from repro.traceroute.probe import ANONYMOUS, Prober, TraceSet
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


def vp_router(world: World, vp_asn: int) -> Router:
    """The router a VP in ``vp_asn`` probes from: its first core router,
    else its first router."""
    routers = world.topology.routers_by_asn[vp_asn]
    cores = [r for r in routers if r.role == "core"]
    return cores[0] if cores else routers[0]


def campaign_destinations(world: World, seed: int,
                          config: CampaignConfig) -> List[int]:
    """Every address a campaign probes, in probing order: addresses
    inside each AS's edge prefixes, AS by AS.

    For prefixes smaller than the per-prefix target count the clamped
    offset collapses several indexes onto the same host; ``seen``
    dedupes so no destination is probed twice from the same VP.
    """
    rng = substream(seed, "campaign")
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
    return destinations


def run_campaign(world: World, routing: RoutingModel, seed: int,
                 config: Optional[CampaignConfig] = None,
                 span=NULL_SPAN) -> TraceSet:
    """Probe (a sample of) every AS's edge prefixes from every VP.

    Each VP walks once per group of consecutive destinations in one
    origin AS (:meth:`Prober.walk_groups`), writing its rows straight
    into the returned :class:`TraceSet`'s columns; a walk with no hops
    is dropped.  ``span`` records ``traces`` and ``walks``, the
    (VP, destination group) walks that found a route.
    """
    traces = TraceSet()
    _walk_campaign(world, routing, seed, config, traces, span)
    return traces


def observe_campaign(world: World, routing: RoutingModel, seed: int,
                     config: Optional[CampaignConfig] = None,
                     span=NULL_SPAN) -> Set[int]:
    """The responsive hop addresses of :func:`run_campaign`'s traces
    (its ``observed()``), from an observed-only walk that writes no
    traces.  ``span`` records the same ``traces`` and ``walks``."""
    observed: Set[int] = set()
    _walk_campaign(world, routing, seed, config, observed, span)
    observed.discard(ANONYMOUS)
    return observed


def _walk_campaign(world: World, routing: RoutingModel, seed: int,
                   config: Optional[CampaignConfig],
                   into: Union[TraceSet, Set[int]], span) -> None:
    """Walk every VP of the campaign into ``into``, as
    :meth:`Prober.walk_groups` takes it."""
    config = config or CampaignConfig()
    prober = Prober(world, routing, seed,
                    anonymous_rate=config.anonymous_rate,
                    dest_responds_rate=config.dest_responds_rate)
    groups = prober.targets(campaign_destinations(world, seed, config))
    walks = rows = 0
    for vp_asn in select_vps(world, config.n_vps, seed):
        walked, written = prober.walk_groups(
            into, vp_asn, vp_router(world, vp_asn), groups)
        walks += walked
        rows += written
    span.set(traces=rows, walks=walks)
