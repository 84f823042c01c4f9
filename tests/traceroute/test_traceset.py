"""TraceSet: a campaign's traces as flat columns, against oracles.

Random traces carry anonymous hops (``None``), missing RTTs and
unreached destinations.  The columns must read back as traces equal to
the input, survive a pickle round trip column for column with every RTT
bit-identical, and give the same observed address set as the union of
``responsive_hops()``.  ``build_router_graph`` on the columns must equal
:func:`oracle_router_graph`, the per-``Trace`` loop it replaced.

A set keeps the values of its hop column as rows are written, so
``observed`` does not walk the column; whoever wrote the rows (appended
traces, a campaign's walk kernel, a set unpickled and written to
again), it must equal the column's set of responsive addresses.
"""

import pickle
import struct
from collections import Counter, defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alias.midar import AliasResolution, InferredNode
from repro.asn.bgp import RouteTable
from repro.bdrmapit.graph import NodeState, RouterGraph, build_router_graph
from repro.itdk.builder import build_snapshot
from repro.naming.assigner import NamingConfig, assign_hostnames
from repro.topology.world import WorldConfig, generate_world
from repro.traceroute.campaign import (
    CampaignConfig,
    campaign_destinations,
    run_campaign,
    select_vps,
    vp_router,
)
from repro.traceroute.probe import ANONYMOUS, Prober, Trace, TraceSet
from repro.traceroute.routing import RoutingModel
from repro.util.ipaddr import IPv4Prefix

#: A small address pool (10.0.0.1 - 10.0.0.24) so traces revisit
#: addresses and nodes; 10.0.0.16/29 is an IXP LAN.
ADDRESSES = [(10 << 24) + host for host in range(1, 25)]

address = st.sampled_from(ADDRESSES)
rtt = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                allow_infinity=False)
hop = st.tuples(st.one_of(st.none(), address), st.one_of(st.none(), rtt))


@st.composite
def traces(draw):
    hops = draw(st.lists(hop, max_size=12))
    return Trace(vp_asn=draw(st.integers(0, 2 ** 32 - 1)),
                 dst_address=draw(st.integers(1, 2 ** 32 - 1)),
                 dst_asn=draw(st.integers(-1, 2 ** 32 - 1)),
                 hops=[address for address, _ in hops],
                 rtts=[value for _, value in hops],
                 vp_loc=draw(st.sampled_from(["", "ams", "nyc", "sin"])),
                 reached=draw(st.booleans()))


trace_lists = st.lists(traces(), max_size=20)


@st.composite
def shared_body_runs(draw):
    """Runs of traces that share every hop but the last, as a VP's
    probes of one prefix do.  Each trace then ends in one of five ways:
    its destination's own reply, a differing last hop that is not its
    destination, a reply on the body's last address (so on the body's
    last node), no extra hop at all, or no hops at all (``reached`` or
    not, right after a non-empty trace).  ``dst_asn`` may change inside
    a run, and ``reached`` is drawn apart from the hops."""
    trace_list = []
    for _ in range(draw(st.integers(1, 4))):
        body = draw(st.lists(hop, max_size=8))
        dst_asn = draw(st.integers(-1, 3))
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.integers(0, 3)) == 0:
                dst_asn = draw(st.integers(-1, 3))
            dst_address = draw(address)
            ending = draw(st.sampled_from(
                ["reply", "other", "alias", "none", "empty"]))
            hops = list(body)
            if ending == "reply":
                hops.append((dst_address, draw(rtt)))
            elif ending == "other":
                hops.append((draw(address.filter(
                    lambda other: other != dst_address)), draw(rtt)))
            elif ending == "alias":
                responsive = [hop for hop, _ in body if hop is not None]
                if responsive:
                    dst_address = responsive[-1]
                hops.append((dst_address, draw(rtt)))
            elif ending == "empty":
                hops = []
            trace_list.append(Trace(
                vp_asn=1, dst_address=dst_address, dst_asn=dst_asn,
                hops=[addr for addr, _ in hops],
                rtts=[value for _, value in hops],
                reached=draw(st.booleans())))
    return trace_list


@st.composite
def resolutions(draw):
    """Some pool addresses grouped into nodes; the rest unresolved."""
    resolution = AliasResolution()
    for address in ADDRESSES:
        node = draw(st.one_of(st.none(), st.integers(0, 7)))
        if node is None:
            continue
        node_id = "N%d" % node
        resolution.nodes.setdefault(
            node_id, InferredNode(node_id=node_id, addresses=[]))
        resolution.nodes[node_id].addresses.append(address)
        resolution.node_of_address[address] = node_id
    return resolution


def _route_table() -> RouteTable:
    table = RouteTable()
    table.announce(IPv4Prefix.parse("10.0.0.0/8"), 3356)
    table.announce(IPv4Prefix.parse("10.0.0.8/29"), 64500)
    table.add_ixp_prefix(IPv4Prefix.parse("10.0.0.16/29"))
    return table


def oracle_router_graph(resolution, trace_list, route_table):
    """The per-``Trace`` graph loop ``build_router_graph`` replaced."""
    states = {}
    ixp_subsequent = defaultdict(Counter)

    def state_for(node_id):
        if node_id not in states:
            states[node_id] = NodeState(node_id=node_id)
        return states[node_id]

    for node_id, node in resolution.nodes.items():
        state = state_for(node_id)
        for addr in node.addresses:
            state.origins[route_table.origin(addr)] += 1
    for trace in trace_list:
        node_path = []
        for addr in trace.responsive_hops():
            node_id = resolution.node_of_address.get(addr)
            if node_id is None:
                continue
            if node_path and node_path[-1][0] == node_id:
                continue
            node_path.append((node_id, addr))
        for position, (node_id, _) in enumerate(node_path):
            state = state_for(node_id)
            state.dests[trace.dst_asn] += 1
            if position + 1 < len(node_path):
                next_address = node_path[position + 1][1]
                state.subsequent_ifaces[next_address] += 1
                if route_table.is_ixp(next_address):
                    ixp_subsequent[node_id][next_address] += 1
        if node_path:
            state_for(node_path[-1][0]).last_hop_dests[trace.dst_asn] += 1
    for node_id, state in states.items():
        own = resolution.nodes.get(node_id)
        if own is None:
            continue
        own_slash30 = {addr >> 2 for addr in own.addresses}
        for addr in state.subsequent_ifaces:
            if (addr >> 2) in own_slash30:
                state.mates.add(addr)
    return RouterGraph(states=states, resolution=resolution,
                       route_table=route_table,
                       ixp_subsequent=dict(ixp_subsequent))


def _rtt_bits(trace_list):
    return [[None if value is None else struct.pack("<d", value)
             for value in trace.rtts] for trace in trace_list]


class TestColumns:
    @given(trace_lists)
    def test_materialised_traces_equal_input(self, trace_list):
        packed = TraceSet(trace_list)
        assert len(packed) == len(trace_list)
        assert list(packed) == trace_list
        assert [packed[i] for i in range(len(packed))] == trace_list
        assert packed[:] == trace_list
        if trace_list:
            assert packed[-1] == trace_list[-1]

    @given(trace_lists)
    def test_pickle_round_trip_is_column_equal(self, trace_list):
        packed = TraceSet(trace_list)
        loaded = pickle.loads(pickle.dumps(packed,
                                           protocol=pickle.HIGHEST_PROTOCOL))
        assert loaded == packed
        for name, column in zip(TraceSet.__slots__, packed.columns()):
            assert type(getattr(loaded, name)) is type(column), name
        assert loaded.hops.tobytes() == packed.hops.tobytes()
        assert loaded.rtts.tobytes() == packed.rtts.tobytes()
        assert list(loaded) == trace_list

    @given(trace_lists)
    def test_rtts_are_bit_identical(self, trace_list):
        packed = pickle.loads(pickle.dumps(TraceSet(trace_list)))
        assert _rtt_bits(packed) == _rtt_bits(trace_list)

    @given(trace_lists)
    def test_observed_is_union_of_responsive_hops(self, trace_list):
        expected = set()
        for trace in trace_list:
            expected.update(trace.responsive_hops())
        assert TraceSet(trace_list).observed() == expected

    def test_anonymous_and_missing_rtt_markers(self):
        packed = TraceSet([Trace(vp_asn=1, dst_address=9, dst_asn=2,
                                 hops=[None, 5, 6], rtts=[None, None, 1.5])])
        assert list(packed.hops) == [0, 5, 6]
        assert packed.rtts[2] == 1.5
        assert all(value != value for value in packed.rtts[:2])

    def test_short_rtt_column_reads_back_padded(self):
        packed = TraceSet([Trace(vp_asn=1, dst_address=9, dst_asn=2,
                                 hops=[4, 5])])
        assert packed[0].rtts == [None, None]

    def test_address_zero_raises(self):
        with pytest.raises(ValueError):
            TraceSet([Trace(vp_asn=1, dst_address=9, dst_asn=2,
                            hops=[4, 0], rtts=[1.0, 2.0])])

    def test_more_rtts_than_hops_raises(self):
        with pytest.raises(ValueError):
            TraceSet([Trace(vp_asn=1, dst_address=9, dst_asn=2,
                            hops=[4], rtts=[1.0, 2.0])])

    def test_index_out_of_range(self):
        packed = TraceSet([Trace(vp_asn=1, dst_address=9, dst_asn=2)])
        with pytest.raises(IndexError):
            packed[1]
        with pytest.raises(IndexError):
            packed[-2]


def _responsive(traces):
    return set(traces.hops) - {ANONYMOUS}


class TestObserved:
    @given(shared_body_runs(), st.integers(0, 16))
    def test_equals_the_hop_column(self, trace_list, split):
        """Appended rows, then a pickle round trip, then more rows."""
        packed = TraceSet(trace_list[:split])
        assert packed.observed() == _responsive(packed)
        loaded = pickle.loads(pickle.dumps(packed))
        assert loaded.observed() == _responsive(packed)
        for trace in trace_list[split:]:
            loaded.append(trace)
        assert loaded.observed() == _responsive(loaded) \
            == _responsive(TraceSet(trace_list))

    def test_observed_is_a_copy(self):
        packed = TraceSet([Trace(vp_asn=1, dst_address=9, dst_asn=2,
                                 hops=[4, None, 5])])
        packed.observed().clear()
        assert packed.observed() == {4, 5}

    @pytest.mark.parametrize("seed", [3, 11])
    def test_campaign_keeps_exactly_its_hop_values(self, seed):
        """The walk kernel adds each new segment's hops once; the set it
        keeps must be the hop column's, no more and no less."""
        world = generate_world(seed, WorldConfig.tiny())
        traces = run_campaign(world, RoutingModel(world.graph), seed)
        assert len(traces)
        assert traces._hop_values() == set(traces.hops)
        assert traces.observed() == _responsive(traces)

    def test_prefix_memo_serves_one_trace_set(self):
        """A second set walked from the same VP through the same prober
        gets its own hop values, although the prefix states exist."""
        world = generate_world(11, WorldConfig.tiny())
        prober = Prober(world, RoutingModel(world.graph), 11)
        config = CampaignConfig()
        groups = prober.targets(campaign_destinations(world, 11, config))
        vp_asn = select_vps(world, config.n_vps, 11)[0]
        router = vp_router(world, vp_asn)
        first, second = TraceSet(), TraceSet()
        prober.walk_groups(first, vp_asn, router, groups)
        prober.walk_groups(second, vp_asn, router, groups[::-1])
        for traces in (first, second):
            assert len(traces)
            assert traces._hop_values() == set(traces.hops)
        assert first.observed() == second.observed()


def _graph_tuple(graph):
    return graph.states, graph.ixp_subsequent, _key_orders(graph)


def _key_orders(graph):
    """Every key sequence of ``graph``, in order, with its type: dict
    equality ignores order, and graphs must agree on it too (so do
    ``sorted``-free readers, such as ``most_common`` ties)."""
    counters = [(node_id, name, type(getattr(state, name)),
                 list(getattr(state, name)))
                for node_id, state in graph.states.items()
                for name in ("origins", "subsequent_ifaces",
                             "last_hop_dests", "dests")]
    ixp = [(node_id, type(addresses), list(addresses))
           for node_id, addresses in graph.ixp_subsequent.items()]
    return list(graph.states), counters, ixp


class TestRouterGraphOracle:
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(resolutions(), trace_lists)
    def test_columns_match_per_trace_loop(self, resolution, trace_list):
        table = _route_table()
        expected = oracle_router_graph(resolution, trace_list, table)
        assert _graph_tuple(build_router_graph(
            resolution, TraceSet(trace_list), table)) \
            == _graph_tuple(expected)
        # A plain list is packed once and gives the same graph.
        assert _graph_tuple(build_router_graph(
            resolution, trace_list, table)) == _graph_tuple(expected)

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(resolutions(), shared_body_runs())
    def test_shared_bodies_match_per_trace_loop(self, resolution,
                                                trace_list):
        """Runs sharing a body are walked once; each trace's own end
        and vote must still land where the per-trace loop puts them."""
        table = _route_table()
        assert _graph_tuple(build_router_graph(
            resolution, TraceSet(trace_list), table)) \
            == _graph_tuple(oracle_router_graph(resolution, trace_list,
                                                table))

    def test_consecutive_same_node_hops_count_once(self):
        """A node answering twice in a row is one step of the path."""
        a, b, c = ADDRESSES[:3]
        resolution = AliasResolution()
        for node_id, addresses in (("N0", [a, b]), ("N1", [c])):
            resolution.nodes[node_id] = InferredNode(node_id=node_id,
                                                     addresses=addresses)
            for addr in addresses:
                resolution.node_of_address[addr] = node_id
        trace = Trace(vp_asn=1, dst_address=9, dst_asn=2, hops=[a, b, c])
        graph = build_router_graph(resolution, [trace], _route_table())
        assert graph.states["N0"].dests == Counter({2: 1})
        assert graph.states["N0"].subsequent_ifaces == Counter({c: 1})

    def test_campaign_graph_matches_oracle(self):
        """A real TINY campaign through both.  A VP's two probes of one
        prefix share their hops up to the destination's reply, so the
        graph walks one body per pair."""
        world = generate_world(11, WorldConfig.tiny())
        naming = assign_hostnames(world, 11, NamingConfig())
        built = build_snapshot(world, naming, 11, "x")
        assert isinstance(built.traces, TraceSet) and len(built.traces)
        table = world.plan.route_table
        resolution = built.snapshot.resolution
        span = _Attrs()
        assert _graph_tuple(build_router_graph(
            resolution, built.traces, table, span=span)) == _graph_tuple(
            oracle_router_graph(resolution, list(built.traces), table))
        assert span.attrs == {"traces": len(built.traces),
                              "bodies": len(built.traces) // 2}


class _Attrs:
    """A span stand-in that keeps what ``set`` records."""

    def __init__(self):
        self.attrs = {}

    def set(self, **attrs):
        self.attrs.update(attrs)
        return self
