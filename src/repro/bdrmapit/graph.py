"""Topological state bdrmapIT reasons over.

For every inferred node the graph records:

* **origins** -- BGP origin ASes of the node's observed interfaces;
* **subsequent interfaces** -- the distinct interface addresses observed
  immediately after the node in traces, each contributing one vote; the
  paper calls the derived AS multiset the node's *subsequent ASNs*;
* **destination ASNs** -- origin ASes of the traces' destinations,
  tracked separately for traces where the node was the last responsive
  hop (the signal bdrmap's edge heuristics use);
* the **link-mate** relation: a subsequent interface in the same /30 as
  one of the node's own addresses is the far end of the node's own
  point-to-point link, so its origin says who supplied the link, not who
  operates the node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.alias.midar import AliasResolution
from repro.asn.bgp import IXP_ASN, RouteTable, UNKNOWN_ASN
from repro.obs.trace import NULL_SPAN
from repro.traceroute.probe import Trace, TraceSet


@dataclass
class NodeState:
    """Per-node topological annotations."""

    node_id: str
    origins: Counter = field(default_factory=Counter)
    # subsequent interface address -> count of traces using it
    subsequent_ifaces: Counter = field(default_factory=Counter)
    # subsequent addresses that are the far end of this node's own link
    mates: Set[int] = field(default_factory=set)
    # destination ASN votes from traces that *ended* at this node
    last_hop_dests: Counter = field(default_factory=Counter)
    # destination ASNs of every trace traversing the node
    dests: Counter = field(default_factory=Counter)

    def subsequent_asns(self, route_table: RouteTable,
                        include_mates: bool = True) -> Set[int]:
        """The node's subsequent ASN set (section 5 semantics)."""
        out: Set[int] = set()
        for address in self.subsequent_ifaces:
            if not include_mates and address in self.mates:
                continue
            origin = route_table.origin(address)
            if origin not in (IXP_ASN, UNKNOWN_ASN):
                out.add(origin)
        return out

    def dest_asns(self) -> Set[int]:
        """The node's destination ASN set (section 5 semantics)."""
        return {asn for asn in self.dests if asn > 0}


@dataclass
class RouterGraph:
    """All node states plus shared lookup tables."""

    states: Dict[str, NodeState]
    resolution: AliasResolution
    route_table: RouteTable
    # node -> addresses of subsequent IXP-LAN interfaces (resolved via the
    # owning node's annotation during iteration)
    ixp_subsequent: Dict[str, Counter] = field(default_factory=dict)

    def state(self, node_id: str) -> NodeState:
        """State for ``node_id`` (KeyError when never observed)."""
        return self.states[node_id]

    def nodes(self) -> List[str]:
        """All node ids, sorted."""
        return sorted(self.states)


def build_router_graph(resolution: AliasResolution,
                       traces: Sequence[Trace],
                       route_table: RouteTable,
                       span=NULL_SPAN) -> RouterGraph:
    """Accumulate per-node state from a trace collection.

    Reads a :class:`TraceSet`'s hop columns; any other sequence of
    traces is packed into one first.  A trace's body is its hops up to
    the destination's own reply (a last hop equal to ``dst_address``;
    ``reached`` plays no part).  A run of consecutive traces with the
    same ``dst_asn`` and the same body (the probes of one prefix from
    one VP) is walked once, weighted by the run's length; then each
    trace's reply and ``last_hop_dests`` vote apply on their own.
    ``span`` records ``traces`` and ``bodies``, the runs walked.
    """
    if not isinstance(traces, TraceSet):
        traces = TraceSet(traces)
    states: Dict[str, NodeState] = {}
    # The walk counts into plain dicts, which Python specialises
    # subscripts for and ``Counter`` defeats; each is wrapped into a
    # ``Counter`` (same keys, same order) once the walk is done.
    ixp_subsequent: Dict[str, Dict[int, int]] = {}

    def state_for(node_id: str) -> NodeState:
        state = states.get(node_id)
        if state is None:
            state = NodeState(node_id=node_id, subsequent_ifaces={},
                              last_hop_dests={}, dests={})
            states[node_id] = state
        return state

    # Interface origins per node.
    for node_id, node in resolution.nodes.items():
        state = state_for(node_id)
        for address in node.addresses:
            state.origins[route_table.origin(address)] += 1

    # One pass over the hop column maps every hop to its node (None for
    # anonymous and unresolved hops).  A walk over hop positions then
    # takes one step per run of consecutive hops on the same node.
    hops, offsets, dst_asns = traces.hops, traces.offsets, traces.dst_asn
    node_of_hop = list(map(resolution.node_of_address.get, hops))
    ixp_of: Dict[int, bool] = {}

    def walk(first: int, stop: int, previous: Optional[NodeState],
             previous_id: Optional[str], dest_origin: int,
             weight: int) -> Tuple[Optional[NodeState], Optional[str]]:
        for position in range(first, stop):
            node_id = node_of_hop[position]
            if node_id is None or node_id == previous_id:
                continue
            state = states.get(node_id) or state_for(node_id)
            dests = state.dests
            dests[dest_origin] = dests.get(dest_origin, 0) + weight
            if previous is not None:
                address = hops[position]
                subsequent = previous.subsequent_ifaces
                subsequent[address] = subsequent.get(address, 0) + weight
                is_ixp = ixp_of.get(address)
                if is_ixp is None:
                    is_ixp = ixp_of[address] = route_table.is_ixp(address)
                if is_ixp:
                    ixp = ixp_subsequent.get(previous_id)
                    if ixp is None:
                        ixp = ixp_subsequent[previous_id] = {}
                    ixp[address] = ixp.get(address, 0) + weight
            previous, previous_id = state, node_id
        return previous, previous_id

    # Each trace's body ends before the destination's own reply: a last
    # hop equal to its ``dst_address`` (``reached`` is not consulted).
    stops = [end - 1 if end > start and hops[end - 1] == dst_address
             else end for start, end, dst_address
             in zip(offsets, offsets[1:], traces.dst_address)]
    count, index, bodies = len(traces), 0, 0
    while index < count:
        start, stop = offsets[index], stops[index]
        dest_origin, body = dst_asns[index], hops[start:stop]
        run_end = index + 1
        while (run_end < count and dst_asns[run_end] == dest_origin
               and hops[offsets[run_end]:stops[run_end]] == body):
            run_end += 1
        bodies += 1
        body_end = walk(start, stop, None, None, dest_origin,
                        run_end - index)
        for trace in range(index, run_end):
            # The trace's own reply, if it has one, then its vote.
            previous, _ = walk(stops[trace], offsets[trace + 1], *body_end,
                               dest_origin, 1)
            if previous is not None:
                votes = previous.last_hop_dests
                votes[dest_origin] = votes.get(dest_origin, 0) + 1
        index = run_end
    span.set(traces=count, bodies=bodies)

    # Wrap each node's counts, then mark its link mates: a subsequent
    # address in the same /30 as one of the node's own addresses.
    for node_id, state in states.items():
        state.dests = Counter(state.dests)
        state.subsequent_ifaces = Counter(state.subsequent_ifaces)
        state.last_hop_dests = Counter(state.last_hop_dests)
        own = resolution.nodes.get(node_id)
        if own is None:
            continue
        own_slash30 = {address >> 2 for address in own.addresses}
        for address in state.subsequent_ifaces:
            if (address >> 2) in own_slash30:
                state.mates.add(address)

    return RouterGraph(states=states, resolution=resolution,
                       route_table=route_table,
                       ixp_subsequent={node_id: Counter(addresses)
                                       for node_id, addresses
                                       in ixp_subsequent.items()})
