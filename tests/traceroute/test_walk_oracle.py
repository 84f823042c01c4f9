"""The grouped segment walk against the per-hop walk it replaced.

:class:`ReferenceProber` keeps the per-hop ``walk`` and ``_record`` as
the oracle: it recomputes every hop's propagation delay and RTT as it
goes, with no segments, no prefix memo and no destination groups.  The
reference campaign calls it once per (VP, destination) over the lists
``run_campaign`` probes.  Campaigns must match it column for column,
RTTs by bytes, and so must single traces that alternate between vantage
points (which clears the prefix memo), walks truncated by a missing
interdomain or internal link, and destination groups that span two edge
routers.  The observed-only walk (:func:`observe_campaign`) must collect
exactly the responsive hops of the reference campaign, and count its
rows and walks as the walk with columns does.
"""

from collections import deque

import pytest

from repro.bdrmapit.graph import build_router_graph
from repro.eval.timeline import _timeline_tasks
from repro.itdk.builder import build_snapshot
from repro.naming.assigner import assign_hostnames
from repro.pipeline import METHOD_BDRMAPIT, SnapshotTask
from repro.topology import geo
from repro.topology.routers import LinkKind
from repro.topology.world import WorldConfig, generate_world
from repro.traceroute.campaign import CampaignConfig, \
    campaign_destinations, observe_campaign, run_campaign, select_vps, \
    vp_router
from repro.traceroute.probe import ANONYMOUS, NO_RTT, Prober, TraceSet
from repro.traceroute.routing import RoutingModel
from tests.traceroute.test_traceset import _graph_tuple, oracle_router_graph


class ReferenceProber(Prober):
    """A prober whose walk pays for every hop as it goes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._path_cache = {}

    def _per_hop_path(self, src, dst):
        """Shortest internal path src->dst as (link, next router) steps."""
        if src.rid == dst.rid:
            return []
        key = (src.rid, dst.rid)
        if key in self._path_cache:
            return self._path_cache[key]
        parents = {}
        frontier = deque([src])
        seen = {src.rid}
        found = False
        while frontier and not found:
            current = frontier.popleft()
            for link, neighbor in self._internal[current.rid]:
                if neighbor.rid in seen:
                    continue
                seen.add(neighbor.rid)
                parents[neighbor.rid] = (link, neighbor, current)
                if neighbor.rid == dst.rid:
                    found = True
                    break
                frontier.append(neighbor)
        if not found:
            self._path_cache[key] = None
            return None
        steps = []
        walk = dst.rid
        while walk != src.rid:
            link, router, previous = parents[walk]
            steps.append((link, router))
            walk = previous.rid
        steps.reverse()
        self._path_cache[key] = steps
        return steps

    def _record(self, hops, rtts, router, iface, delay_ms):
        if self._anonymous[router.rid]:
            hops.append(ANONYMOUS)
            rtts.append(NO_RTT)
        else:
            hops.append(iface.address)
            rtts.append(round(2.0 * delay_ms + self._jitter[router.rid], 3))

    def walk(self, vp_asn, vp_router, dst_address):
        dst_asn = self._world.origin(dst_address)
        if dst_asn <= 0:
            return None
        as_path = self._routing.as_path(vp_asn, dst_asn)
        if as_path is None:
            return None
        hops = []
        rtts = []

        current_router = vp_router
        delay = 0.0
        for position in range(len(as_path) - 1):
            this_asn, next_asn = as_path[position], as_path[position + 1]
            link = self._interdomain_link(this_asn, next_asn)
            if link is None:
                return dst_asn, hops, rtts, False
            egress_iface = self._link_interface(link, this_asn)
            ingress_iface = self._link_interface(link, next_asn)
            if egress_iface is None or ingress_iface is None:
                return dst_asn, hops, rtts, False
            steps = self._per_hop_path(current_router, egress_iface.router)
            if steps is None:
                return dst_asn, hops, rtts, False
            previous = current_router
            for internal_link, router in steps:
                arrived = internal_link.a if internal_link.a.router is router \
                    else internal_link.b
                delay += geo.propagation_ms(previous.loc, router.loc) + 0.05
                self._record(hops, rtts, router, arrived, delay)
                previous = router
            delay += geo.propagation_ms(previous.loc,
                                        ingress_iface.router.loc) + 0.05
            self._record(hops, rtts, ingress_iface.router, ingress_iface,
                         delay)
            current_router = ingress_iface.router

        reached = False
        edge_router = self._edge_router_for(dst_address, dst_asn)
        if edge_router is not None:
            steps = self._per_hop_path(current_router, edge_router)
            if steps is not None:
                previous = current_router
                for internal_link, router in steps:
                    arrived = internal_link.a \
                        if internal_link.a.router is router \
                        else internal_link.b
                    delay += geo.propagation_ms(previous.loc,
                                                router.loc) + 0.05
                    self._record(hops, rtts, router, arrived, delay)
                    previous = router
                if self._destination_responds(dst_address):
                    hops.append(dst_address)
                    rtts.append(round(2.0 * (delay + 0.05) + 0.5, 3))
                    reached = True
        return dst_asn, hops, rtts, reached


def _reference_campaign(world, routing, seed, config):
    """The campaign as one :meth:`ReferenceProber.walk` per (VP,
    destination), over the VP and destination lists ``run_campaign``
    uses, dropping walks with no hops as it does."""
    prober = ReferenceProber(world, routing, seed,
                             anonymous_rate=config.anonymous_rate,
                             dest_responds_rate=config.dest_responds_rate)
    destinations = campaign_destinations(world, seed, config)
    traces = TraceSet()
    for vp_asn in select_vps(world, config.n_vps, seed):
        router = vp_router(world, vp_asn)
        for dst_address in destinations:
            walk = prober.walk(vp_asn, router, dst_address)
            if walk is not None and walk[1]:
                traces.add(vp_asn, dst_address, router.loc, *walk)
    return traces


def _assert_same_columns(traces, reference):
    assert len(traces) == len(reference)
    for name, column, expected in zip(traces.__slots__, traces.columns(),
                                      reference.columns()):
        if name == "rtts":
            assert column.tobytes() == expected.tobytes(), name
        else:
            assert column == expected, name


def _assert_same_observed(world, routing, seed, config, reference):
    """The observed-only walk against the reference campaign: its
    responsive hops, and the span counts the walk with columns sets."""
    columns, observed = _Attrs(), _Attrs()
    run_campaign(world, routing, seed, config, span=columns)
    assert observe_campaign(world, routing, seed, config, span=observed) \
        == reference.observed()
    assert observed.attrs == columns.attrs
    assert observed.attrs["traces"] == len(reference)


class _Attrs:
    """A span stand-in that keeps what ``set`` records."""

    def __init__(self):
        self.attrs = {}

    def set(self, **attrs):
        self.attrs.update(attrs)
        return self


def _tiny():
    world = generate_world(42, WorldConfig.tiny())
    return world, RoutingModel(world.graph)


def _vp_router(world, asn, index=0):
    return world.topology.routers_by_asn[asn][index]


def _destinations(world):
    return [world.plan.edge_prefixes(asn)[0].host(9)
            for asn in world.graph.asns()
            if world.plan.edge_prefixes(asn)]


@pytest.mark.parametrize("anonymous_rate", [0.0, 0.5, 1.0])
def test_campaign_matches_per_hop_walk(anonymous_rate):
    world, routing = _tiny()
    config = CampaignConfig(n_vps=5, anonymous_rate=anonymous_rate)
    traces = run_campaign(world, routing, 9, config)
    reference = _reference_campaign(world, routing, 9, config)
    assert len(traces) > 100
    _assert_same_columns(traces, reference)
    _assert_same_observed(world, routing, 9, config, reference)


def test_traces_alternating_between_vps_match():
    """Two VP routers in one AS, then a VP in another AS, taking turns:
    each switch clears the prefix memo, so no VP reads another's hops."""
    world, routing = _tiny()
    shared_asn = next(asn for asn in select_vps(world, 20, 9)
                      if len(world.topology.routers_by_asn[asn]) > 1)
    other_asn = next(asn for asn in select_vps(world, 20, 9)
                     if asn != shared_asn)
    vps = [(shared_asn, _vp_router(world, shared_asn, 0)),
           (shared_asn, _vp_router(world, shared_asn, 1)),
           (other_asn, _vp_router(world, other_asn))]
    prober = Prober(world, routing, 5, anonymous_rate=0.2)
    reference = ReferenceProber(world, routing, 5, anonymous_rate=0.2)
    compared = 0
    for dst_address in _destinations(world):
        for vp_asn, vp_router in vps:
            trace = prober.trace(vp_asn, vp_router, dst_address)
            assert trace == reference.trace(vp_asn, vp_router, dst_address)
            compared += trace is not None
    assert compared > 100


def _second_crossing(routing, vp_asn, asns):
    """The AS pair of the first path from ``vp_asn`` that crosses a
    second interdomain link, as the ``interdomain_links`` key."""
    for asn in asns:
        path = routing.as_path(vp_asn, asn)
        if path is not None and len(path) >= 3:
            return min(path[1], path[2]), max(path[1], path[2])
    raise AssertionError("no path with two crossings")


@pytest.mark.parametrize("removed", ["interdomain", "internal"])
def test_truncated_walks_match(removed):
    """With a link gone, walks that need it stop early, unreached, with
    the hops recorded before the failed crossing."""
    world, routing = _tiny()
    config = CampaignConfig(n_vps=5)
    vp_asn = select_vps(world, config.n_vps, 9)[0]
    pair = _second_crossing(routing, vp_asn, world.graph.asns())
    if removed == "interdomain":
        del world.topology.interdomain_links[pair]
    else:
        # A border router has one internal link; without it the border
        # router is unreachable inside its AS.
        border = world.topology.interdomain_links[pair][0].a.router
        internal = [link for link in world.topology.links
                    if link.kind is LinkKind.INTERNAL
                    and border in (link.a.router, link.b.router)]
        assert len(internal) == 1
        world.topology.links.remove(internal[0])
    traces = run_campaign(world, routing, 9, config)
    reference = _reference_campaign(world, routing, 9, config)
    _assert_same_columns(traces, reference)
    _assert_same_observed(world, routing, 9, config, reference)

    def crosses_pair(trace):
        path = routing.as_path(vp_asn, trace.dst_asn)
        return any((min(a, b), max(a, b)) == pair
                   for a, b in zip(path, path[1:]))

    assert any(trace.vp_asn == vp_asn and trace.hops and not trace.reached
               and crosses_pair(trace) for trace in traces)


def test_destinations_behind_two_edge_routers_match():
    """Each edge prefix's upper half moves to a second router of its AS,
    so a prefix's two destinations sit behind different edge routers in
    one destination group: each walk takes its own edge router's tail."""
    world, routing = _tiny()
    edges = world.topology.edge_router_of_prefix
    for prefix, router in list(edges.items()):
        others = [other for other in world.topology.routers_by_asn[router.asn]
                  if other is not router]
        if others and prefix.length < 31:
            edges[list(prefix.subnets(prefix.length + 1))[1]] = others[-1]
    config = CampaignConfig(n_vps=5)
    groups = Prober(world, routing, 9).targets(
        campaign_destinations(world, 9, config))
    assert sum(len({edge.rid for _, edge in targets}) > 1
               for _, targets in groups) > 10
    reference = _reference_campaign(world, routing, 9, config)
    _assert_same_columns(run_campaign(world, routing, 9, config), reference)
    _assert_same_observed(world, routing, 9, config, reference)


def test_sinks_taking_turns_match_their_own_walks():
    """One prober walks each VP into a trace set, then into an
    observed-only set: each switch of sink clears the prefix memo, so
    neither mode reads the other's prefix states or reported segments."""
    world, routing = _tiny()
    config = CampaignConfig(n_vps=5)
    prober = Prober(world, routing, 9)
    groups = prober.targets(campaign_destinations(world, 9, config))
    traces, observed = TraceSet(), set()
    for vp_asn in select_vps(world, config.n_vps, 9):
        router = vp_router(world, vp_asn)
        before = len(traces)
        walked, rows = prober.walk_groups(traces, vp_asn, router, groups)
        assert rows == len(traces) - before
        assert prober.walk_groups(observed, vp_asn, router, groups) \
            == (walked, rows)
    reference = _reference_campaign(world, routing, 9, config)
    _assert_same_columns(traces, reference)
    observed.discard(ANONYMOUS)
    assert observed == reference.observed()


@pytest.mark.slow
def test_small_campaigns_match_per_hop_walk():
    """All 17 seed-2020 SMALL campaigns, column for column and observed
    only, and the 5 bdrmapIT router graphs built from them against the
    per-trace graph loop."""
    world = generate_world(2020, WorldConfig.small())
    routing = RoutingModel(world.graph)
    table = world.plan.route_table
    tasks = [task for task in _timeline_tasks(world, 2020, routing, None,
                                              include_pdb=False)
             if isinstance(task, SnapshotTask)]
    assert len(tasks) == 17
    graphs = 0
    for task in tasks:
        spec = task.spec
        config = spec.build_config()
        traces = run_campaign(world, routing, spec.seed, config.campaign)
        reference = _reference_campaign(world, routing, spec.seed,
                                        config.campaign)
        _assert_same_columns(traces, reference)
        _assert_same_observed(world, routing, spec.seed, config.campaign,
                              reference)
        if spec.method != METHOD_BDRMAPIT:
            continue
        naming = assign_hostnames(world, spec.seed, spec.naming_config())
        resolution = build_snapshot(world, naming, spec.seed, spec.label,
                                    config=config, traces=traces,
                                    ).snapshot.resolution
        assert _graph_tuple(build_router_graph(resolution, traces, table)) \
            == _graph_tuple(oracle_router_graph(resolution, list(traces),
                                                table))
        graphs += 1
    assert graphs == 5
