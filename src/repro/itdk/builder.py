"""Assemble an ITDK snapshot from a traceroute campaign.

The builder is the measurement-side glue: run (or accept) a campaign's
traces, collect every observed address, resolve aliases, and attach the
PTR names the naming layer assigned.  AS annotation is done separately by
:mod:`repro.rtaa` or :mod:`repro.bdrmapit` so the same snapshot can carry
either method's inferences (as the real ITDKs did across eras).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from repro.alias.midar import resolve_aliases
from repro.itdk.snapshot import ITDKSnapshot
from repro.naming.assigner import NamingOutcome, host_hostname
from repro.obs.trace import NULL_TRACER
from repro.topology.world import World
from repro.traceroute.campaign import CampaignConfig, observe_campaign, \
    run_campaign
from repro.traceroute.probe import Trace, TraceSet
from repro.traceroute.routing import RoutingModel


@dataclass
class BuildConfig:
    """Knobs for ITDK assembly."""

    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    alias_split_rate: float = 0.10
    alias_merge_rate: float = 0.0
    alias_augment_rate: float = 0.65


def build_snapshot(world: World, naming: NamingOutcome, seed: int,
                   label: str,
                   routing: Optional[RoutingModel] = None,
                   config: Optional[BuildConfig] = None,
                   traces: Optional[Sequence[Trace]] = None,
                   tracer=NULL_TRACER,
                   keep_traces: bool = True) -> "BuiltSnapshot":
    """Run a campaign (unless ``traces`` given) and build the snapshot.

    With ``keep_traces`` false the campaign walks observed only
    (:func:`observe_campaign`): alias resolution reads just the observed
    addresses, and the result carries no traces.  ``tracer`` records
    the three steps as ``snapshot.campaign``, ``snapshot.alias`` and
    ``snapshot.names`` spans; a campaign run here sets ``traces`` and
    ``walks`` on its span in either mode (see :func:`run_campaign`).
    """
    config = config or BuildConfig()
    observed = None
    with tracer.span("snapshot.campaign") as span:
        if traces is None:
            if routing is None:
                routing = RoutingModel(world.graph)
            if keep_traces:
                traces = run_campaign(world, routing, seed,
                                      config.campaign, span=span)
            else:
                observed = observe_campaign(world, routing, seed,
                                            config.campaign, span=span)
        elif not isinstance(traces, TraceSet):
            traces = TraceSet(traces)

    with tracer.span("snapshot.alias"):
        if observed is None:
            observed = traces.observed()
        resolution = resolve_aliases(world, observed, seed,
                                     split_rate=config.alias_split_rate,
                                     merge_rate=config.alias_merge_rate,
                                     augment_rate=config.alias_augment_rate)
    snapshot = ITDKSnapshot(label=label, resolution=resolution)
    with tracer.span("snapshot.names"):
        snapshot.hostnames = name_hosts(world, naming, seed,
                                        resolution.node_of_address)
    return BuiltSnapshot(snapshot=snapshot, traces=traces)


def name_hosts(world: World, naming: NamingOutcome, seed: int,
               addresses: Iterable[int]) -> Dict[int, str]:
    """The PTR name of each of ``addresses`` that has one, in sorted
    order.

    An address without a record in ``naming`` is a destination host's,
    which may still have an (IP-derived) PTR name; its record is
    memoised into ``naming`` (:func:`host_hostname`).
    """
    hostnames: Dict[int, str] = {}
    for address in sorted(addresses):
        record = naming.record(address)
        if record is None:
            record = host_hostname(world, address, naming, seed)
        if record is not None:
            hostnames[address] = record.hostname
    return hostnames


@dataclass
class BuiltSnapshot:
    """A snapshot plus the raw traces it was built from.

    Only bdrmapIT annotation reads the traces: it needs the hop
    sequences, which the published ITDK files do not carry.
    RouterToAsAssignment reads the alias resolution and the route table,
    so an RTAA build walks observed only and ``traces`` is ``None``.
    """

    snapshot: ITDKSnapshot
    traces: Optional[TraceSet]
