"""Router-level traceroute expansion.

Given an AS path, the prober walks the actual routers: inside each AS it
follows internal links between the ingress router and the egress border
router; between ASes it crosses the interdomain link (private /31 or IXP
LAN).  Every router after the source reports its *ingress* interface
address -- the address of the interface the probe arrived on -- which is
the semantics that make supplier-addressed interconnects so misleading
for IP-to-AS mapping (section 1 of the paper).
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Optional, Sequence, Set, Tuple,
                    overload)

from repro.topology.routers import (
    Interface,
    InterfaceKind,
    Link,
    LinkKind,
    Router,
    RouterLevelTopology,
)
from repro.topology import geo
from repro.topology.world import World
from repro.traceroute.routing import RoutingModel
from repro.util.ipaddr import IPv4Prefix
from repro.util.radix import PrefixTable
from repro.util.rand import substream


@dataclass
class Trace:
    """One traceroute: observed hop addresses and RTTs to a destination."""

    vp_asn: int
    dst_address: int
    dst_asn: int
    hops: List[Optional[int]] = field(default_factory=list)
    #: Round-trip times (ms) parallel to ``hops`` (None for anonymous).
    rtts: List[Optional[float]] = field(default_factory=list)
    vp_loc: str = ""
    reached: bool = False

    def responsive_hops(self) -> List[int]:
        """The non-anonymous hop addresses, in order."""
        return [hop for hop in self.hops if hop is not None]

    def hop_rtts(self) -> List[Tuple[int, float]]:
        """(address, rtt) pairs for the responsive hops."""
        return [(hop, rtt) for hop, rtt in zip(self.hops, self.rtts)
                if hop is not None and rtt is not None]


#: The hop address a :class:`TraceSet` stores for an anonymous hop.
ANONYMOUS = 0
#: The RTT a :class:`TraceSet` stores for a hop without one.
NO_RTT = math.nan


class TraceSet(Sequence[Trace]):
    """One campaign's traces as flat columns.

    Per trace: ``vp_asn``, ``dst_address``, ``dst_asn``, ``vp_loc``,
    ``reached`` and the trace's first index into the hop columns
    (``offsets`` holds one more entry, the end of the last trace).  Per
    hop: ``hops``, an ``array('I')`` of addresses with
    :data:`ANONYMOUS` (0) for an anonymous hop, and ``rtts``, an
    ``array('d')`` with NaN for a missing RTT.

    It is a ``Sequence[Trace]``: indexing or iterating builds a
    :class:`Trace` equal to the one added, and it pickles as arrays.
    A trace added with fewer RTTs than hops reads back padded with
    ``None``.
    """

    __slots__ = ("vp_asn", "dst_address", "dst_asn", "vp_loc", "reached",
                 "offsets", "hops", "rtts")

    def __init__(self, traces: Iterable[Trace] = ()) -> None:
        self.vp_asn = array("q")
        self.dst_address = array("I")
        self.dst_asn = array("q")
        self.vp_loc: List[str] = []
        self.reached = array("B")
        self.offsets = array("I", [0])
        self.hops = array("I")
        self.rtts = array("d")
        for trace in traces:
            self.append(trace)

    def add(self, vp_asn: int, dst_address: int, vp_loc: str,
            dst_asn: int, hops: Sequence[int], rtts: Sequence[float],
            reached: bool) -> None:
        """Append one trace given as columns: ``hops`` with 0 for an
        anonymous hop, ``rtts`` (as long as ``hops``) with NaN for none.
        The last four arguments are what :meth:`Prober.walk` returns."""
        self.vp_asn.append(vp_asn)
        self.dst_address.append(dst_address)
        self.dst_asn.append(dst_asn)
        self.vp_loc.append(vp_loc)
        self.reached.append(reached)
        self.hops.extend(hops)
        self.rtts.extend(rtts)
        self.offsets.append(len(self.hops))

    def append(self, trace: Trace) -> None:
        """Append ``trace``; a hop at address 0 raises ``ValueError`` (0
        is how the columns spell an anonymous hop)."""
        if ANONYMOUS in trace.hops:
            raise ValueError("hop address 0 collides with the anonymous "
                             "marker")
        if len(trace.rtts) > len(trace.hops):
            raise ValueError("more RTTs than hops")
        rtts = [NO_RTT if rtt is None else rtt for rtt in trace.rtts]
        rtts.extend([NO_RTT] * (len(trace.hops) - len(rtts)))
        self.add(trace.vp_asn, trace.dst_address, trace.vp_loc,
                 trace.dst_asn,
                 [ANONYMOUS if hop is None else hop for hop in trace.hops],
                 rtts, trace.reached)

    def observed(self) -> Set[int]:
        """Every responsive hop address."""
        observed = set(self.hops)
        observed.discard(ANONYMOUS)
        return observed

    def __len__(self) -> int:
        return len(self.dst_address)

    @overload
    def __getitem__(self, index: int) -> Trace: ...

    @overload
    def __getitem__(self, index: slice) -> List[Trace]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("TraceSet index out of range")
        start, end = self.offsets[index], self.offsets[index + 1]
        return Trace(vp_asn=self.vp_asn[index],
                     dst_address=self.dst_address[index],
                     dst_asn=self.dst_asn[index],
                     hops=[hop or None for hop in self.hops[start:end]],
                     rtts=[None if rtt != rtt else rtt
                           for rtt in self.rtts[start:end]],
                     vp_loc=self.vp_loc[index],
                     reached=bool(self.reached[index]))

    def columns(self) -> Tuple[object, ...]:
        """Every column, in slot order."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceSet):
            return NotImplemented
        # NaN != NaN, so the RTT column (the last slot) compares by bytes.
        return (self.columns()[:-1] == other.columns()[:-1]
                and self.rtts.tobytes() == other.rtts.tobytes())

    def __repr__(self) -> str:
        return "TraceSet(%d traces, %d hops)" % (len(self), len(self.hops))

    def __getstate__(self) -> Tuple[object, ...]:
        return self.columns()

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        for name, column in zip(self.__slots__, state):
            setattr(self, name, column)


class Prober:
    """Expands AS-level routes into router-level traceroute output."""

    def __init__(self, world: World, routing: RoutingModel,
                 seed: int, anonymous_rate: float = 0.04,
                 dest_responds_rate: float = 0.8) -> None:
        self._world = world
        self._routing = routing
        self._topo = world.topology
        self._anonymous_rate = anonymous_rate
        self._dest_responds_rate = dest_responds_rate
        rng = substream(seed, "prober")
        # Pre-roll per-router anonymity (a router either answers
        # traceroute or does not, consistently) and reply jitter.
        self._anonymous = {router.rid: rng.random() < anonymous_rate
                           for router in self._topo.routers}
        self._jitter = {router.rid: 0.1 + 1.4 * rng.random()
                        for router in self._topo.routers}
        self._dest_responds = rng  # drawn per destination, lazily
        self._dest_resp_cache: Dict[int, bool] = {}
        # Intra-AS adjacency over internal links.
        self._internal: Dict[str, List[Tuple[Link, Router]]] = \
            defaultdict(list)
        for link in self._topo.links:
            if link.kind is LinkKind.INTERNAL:
                self._internal[link.a.router.rid].append(
                    (link, link.b.router))
                self._internal[link.b.router.rid].append(
                    (link, link.a.router))
        self._path_cache: Dict[Tuple[str, str],
                               Optional[List[Tuple[Link, Router]]]] = {}
        self._edge_routers: "PrefixTable[Router]" = PrefixTable()
        for prefix, router in self._topo.edge_router_of_prefix.items():
            self._edge_routers.insert(prefix, router)

    # -- intra-AS pathing ---------------------------------------------------

    def _internal_path(self, src: Router,
                       dst: Router) -> Optional[List[Tuple[Link, Router]]]:
        """Shortest internal path src->dst as (link, next router) steps."""
        if src.rid == dst.rid:
            return []
        key = (src.rid, dst.rid)
        if key in self._path_cache:
            return self._path_cache[key]
        parents: Dict[str, Tuple[Link, Router, Router]] = {}
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
        steps: List[Tuple[Link, Router]] = []
        walk = dst.rid
        while walk != src.rid:
            link, router, previous = parents[walk]
            steps.append((link, router))
            walk = previous.rid
        steps.reverse()
        self._path_cache[key] = steps
        return steps

    # -- interdomain link selection ------------------------------------------

    def _interdomain_link(self, a: int, b: int,
                          flow: int) -> Optional[Link]:
        """The link used between adjacent ASes.

        The first provisioned link is primary; any others are cold
        backups that forwarding never uses (their supplier-named far
        sides exist in reverse DNS but not in traceroute -- the basis
        of the section-7 expansion observation).
        """
        key = (min(a, b), max(a, b))
        links = self._topo.interdomain_links.get(key)
        if not links:
            return None
        return links[0]

    @staticmethod
    def _link_interface(link: Link, asn: int) -> Optional[Interface]:
        """The interface of ``link`` residing on a router of ``asn``."""
        if link.a.router.asn == asn:
            return link.a
        if link.b.router.asn == asn:
            return link.b
        return None

    # -- hop recording -------------------------------------------------------

    def _record(self, hops: List[int], rtts: List[float], router: Router,
                iface: Interface, delay_ms: float) -> None:
        if self._anonymous[router.rid]:
            hops.append(ANONYMOUS)
            rtts.append(NO_RTT)
        else:
            hops.append(iface.address)
            rtts.append(round(2.0 * delay_ms + self._jitter[router.rid], 3))

    # -- main entry ------------------------------------------------------------

    def trace(self, vp_asn: int, vp_router: Router,
              dst_address: int) -> Optional[Trace]:
        """Simulate one traceroute from ``vp_router`` to ``dst_address``.

        Returns ``None`` when the VP has no route to the destination's
        origin AS; otherwise a :class:`Trace`, possibly truncated when an
        internal path is missing (treated as unreachable).  The trace is
        :meth:`walk`'s columns read back through a one-trace
        :class:`TraceSet`.
        """
        walk = self.walk(vp_asn, vp_router, dst_address)
        if walk is None:
            return None
        traces = TraceSet()
        traces.add(vp_asn, dst_address, vp_router.loc, *walk)
        return traces[0]

    def walk(self, vp_asn: int, vp_router: Router, dst_address: int,
             ) -> Optional[Tuple[int, List[int], List[float], bool]]:
        """One traceroute as ``(dst_asn, hops, rtts, reached)``, the
        columns :meth:`TraceSet.add` takes; ``None`` as in :meth:`trace`."""
        dst_asn = self._world.origin(dst_address)
        if dst_asn <= 0:
            return None
        as_path = self._routing.as_path(vp_asn, dst_asn)
        if as_path is None:
            return None
        hops: List[int] = []
        rtts: List[float] = []
        flow = dst_address  # deterministic per-destination flow id

        current_router = vp_router
        delay = 0.0          # cumulative one-way propagation (ms)
        for position in range(len(as_path) - 1):
            this_asn, next_asn = as_path[position], as_path[position + 1]
            link = self._interdomain_link(this_asn, next_asn, flow)
            if link is None:
                return dst_asn, hops, rtts, False  # no physical link
            egress_iface = self._link_interface(link, this_asn)
            ingress_iface = self._link_interface(link, next_asn)
            if egress_iface is None or ingress_iface is None:
                return dst_asn, hops, rtts, False
            steps = self._internal_path(current_router, egress_iface.router)
            if steps is None:
                return dst_asn, hops, rtts, False
            previous = current_router
            for internal_link, router in steps:
                arrived = internal_link.a if internal_link.a.router is router \
                    else internal_link.b
                delay += geo.propagation_ms(previous.loc, router.loc) + 0.05
                self._record(hops, rtts, router, arrived, delay)
                previous = router
            # Cross the interdomain link: next router answers with the
            # interface address on the shared subnet (supplier-addressed,
            # or the IXP LAN address).
            delay += geo.propagation_ms(previous.loc,
                                        ingress_iface.router.loc) + 0.05
            self._record(hops, rtts, ingress_iface.router, ingress_iface,
                         delay)
            current_router = ingress_iface.router

        # Inside the destination AS: walk to the edge router hosting the
        # destination prefix, then the destination itself may answer.
        reached = False
        edge_router = self._edge_router_for(dst_address, dst_asn)
        if edge_router is not None:
            steps = self._internal_path(current_router, edge_router)
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

    def _edge_router_for(self, address: int,
                         dst_asn: int) -> Optional[Router]:
        router = self._edge_routers.lookup(address)
        if router is not None and router.asn == dst_asn:
            return router
        routers = self._topo.routers_by_asn.get(dst_asn)
        return routers[0] if routers else None

    def _destination_responds(self, address: int) -> bool:
        cached = self._dest_resp_cache.get(address)
        if cached is None:
            cached = self._dest_responds.random() < self._dest_responds_rate
            self._dest_resp_cache[address] = cached
        return cached
