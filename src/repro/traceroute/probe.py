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
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Set, Tuple, Union, overload)

from repro.topology.routers import (
    Interface,
    Link,
    LinkKind,
    Router,
)
from repro.topology import geo
from repro.topology.world import World
from repro.traceroute.routing import RoutingModel
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
    Its writers also keep the set of values in ``hops``, which
    :meth:`observed` reads instead of walking the hop column; an
    unpickled set builds it from the column when first needed.
    A trace added with fewer RTTs than hops reads back padded with
    ``None``.
    """

    #: The columns, in pickled order.
    COLUMNS = ("vp_asn", "dst_address", "dst_asn", "vp_loc", "reached",
               "offsets", "hops", "rtts")
    # ``_values``: the set of values in ``hops``, or ``None`` until
    # first needed on an unpickled set.
    __slots__ = COLUMNS + ("_values",)

    def __init__(self, traces: Iterable[Trace] = ()) -> None:
        self.vp_asn = array("q")
        self.dst_address = array("I")
        self.dst_asn = array("q")
        self.vp_loc: List[str] = []
        self.reached = array("B")
        self.offsets = array("I", [0])
        self.hops = array("I")
        self.rtts = array("d")
        self._values: Optional[Set[int]] = set()
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
        self._hop_values().update(hops)

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
        observed = set(self._hop_values())
        observed.discard(ANONYMOUS)
        return observed

    def _hop_values(self) -> Set[int]:
        """The set of values in ``hops``, which writers extend."""
        if self._values is None:
            self._values = set(self.hops)
        return self._values

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
        """Every column, in :data:`COLUMNS` order."""
        return tuple(getattr(self, name) for name in self.COLUMNS)

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
        for name, column in zip(self.COLUMNS, state):
            setattr(self, name, column)
        self._values = None


class _Segment(NamedTuple):
    """A compiled run of hops: every value a walk needs, fixed once.

    ``hops`` are the answering addresses (:data:`ANONYMOUS` for an
    anonymous router); ``steps`` pairs each hop's delay increment
    (``propagation_ms(previous, router) + 0.05``) with the router's reply
    jitter, ``None`` when it is anonymous; ``end`` is the last router.
    """

    hops: "array[int]"
    steps: Tuple[Tuple[float, Optional[float]], ...]
    end: Router


#: A walk's state after an AS-path prefix: hop and RTT columns, the
#: cumulative one-way delay, the router reached, and whether every
#: crossing so far succeeded.  An observed-only walk keeps no columns
#: and no delay: its state is (whether the walk has hops, ``None``,
#: ``0.0``, router, complete).  Memo entries are never mutated.
_PrefixState = Tuple[object, Optional["array[float]"], float, Router, bool]

#: One destination of a walk: its address and the edge router hosting
#: its prefix (``None`` when its AS has no routers).
Target = Tuple[int, Optional[Router]]
#: Consecutive destinations sharing an origin AS: (origin AS, targets).
TargetGroup = Tuple[int, List[Target]]


def _extend(hops: "array[int]", rtts: "array[float]", delay: float,
            segment: _Segment) -> float:
    """Append ``segment``'s hops and RTTs; return the new delay.

    The delay accumulates step by step, in walk order, so every RTT is
    the same float a per-hop walk computes.
    """
    hops.extend(segment.hops)
    for increment, jitter in segment.steps:
        delay += increment
        rtts.append(NO_RTT if jitter is None
                    else round(2.0 * delay + jitter, 3))
    return delay


class Prober:
    """Expands AS-level routes into router-level traceroute output.

    Hop simulation is compiled once per prober into segments: each AS
    crossing, keyed on (current router, this AS, next AS), is the
    internal path to the egress border router plus the interdomain hop;
    each destination tail, keyed on (current router, edge router), is
    the internal path to the edge router.  Internal paths come from one
    BFS parent tree per source router.  A walk's state after every
    AS-path prefix is memoised, keyed on the prefix, so a walk extends
    its parent prefix by one crossing.  The prefix memo belongs to one
    vantage point and one sink (a :class:`TraceSet`, or the set of an
    observed-only walk): a walk clears it whenever it sees a different
    ``vp_router`` or sink, which bounds it by that VP's tree of AS
    paths.  The first time a crossing or tail is walked into a sink, its
    hops go into the sink's hop values, so the set's ``observed`` never
    reads a hop its rows repeat.

    :meth:`walk_groups` is the one walk kernel: it walks from a VP to
    groups of destinations, each in one origin AS (see :meth:`targets`),
    with one AS path and one prefix state per group, one tail per edge
    router, and per destination only the reply.  :meth:`walk` and
    :meth:`trace` are its one-destination case.
    """

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
        self._edge_routers: "PrefixTable[Router]" = PrefixTable()
        for prefix, router in self._topo.edge_router_of_prefix.items():
            self._edge_routers.insert(prefix, router)
        # BFS parent trees per source router and compiled segments
        # (None: no route), kept for the prober's life.
        self._trees: Dict[str, Dict[str, Tuple[Link, Router, Router]]] = {}
        self._crossings: Dict[Tuple[str, int, int], Optional[_Segment]] = {}
        self._tails: Dict[Tuple[str, str], Optional[_Segment]] = {}
        # The prefix memo, the VP router and sink it belongs to, whether
        # that sink takes columns, the sink's hop values, and the ids of
        # the segments whose hops those values hold (segments live as
        # long as the prober, so ids are unique).
        self._prefix_vp: Optional[str] = None
        self._prefix_sink: object = None
        self._columns = True
        self._values: Set[int] = set()
        self._reported: Set[int] = set()
        self._prefixes: Dict[Tuple[int, ...], _PrefixState] = {}

    # -- intra-AS pathing ---------------------------------------------------

    def _internal_path(self, src: Router, dst: Router,
                       ) -> Optional[List[Tuple[Router, Interface]]]:
        """Shortest internal path src->dst, as the routers after ``src``
        paired with the interface each one is reached on."""
        if src.rid == dst.rid:
            return []
        tree = self._trees.get(src.rid)
        if tree is None:
            tree = self._trees[src.rid] = self._bfs_tree(src)
        if dst.rid not in tree:
            return None
        steps: List[Tuple[Router, Interface]] = []
        walk = dst.rid
        while walk != src.rid:
            link, router, previous = tree[walk]
            steps.append((router, link.a if link.a.router is router
                          else link.b))
            walk = previous.rid
        steps.reverse()
        return steps

    def _bfs_tree(self, src: Router) -> Dict[str, Tuple[Link, Router, Router]]:
        """Breadth-first parents of every router reachable from ``src``
        over internal links: router id -> (link, router, parent).

        A router's parent is fixed when it is first discovered, so the
        path to any one router is the one a BFS stopping at it finds.
        """
        parents: Dict[str, Tuple[Link, Router, Router]] = {}
        frontier = deque([src])
        seen = {src.rid}
        while frontier:
            current = frontier.popleft()
            for link, neighbor in self._internal[current.rid]:
                if neighbor.rid in seen:
                    continue
                seen.add(neighbor.rid)
                parents[neighbor.rid] = (link, neighbor, current)
                frontier.append(neighbor)
        return parents

    # -- interdomain link selection ------------------------------------------

    def _interdomain_link(self, a: int, b: int) -> Optional[Link]:
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

    # -- segments ------------------------------------------------------------

    def _compile(self, start: Router,
                 steps: List[Tuple[Router, Interface]]) -> _Segment:
        """The segment walking ``steps`` (router, interface it answers
        with) onward from ``start``."""
        hops = array("I")
        compiled: List[Tuple[float, Optional[float]]] = []
        previous = start
        for router, iface in steps:
            anonymous = self._anonymous[router.rid]
            hops.append(ANONYMOUS if anonymous else iface.address)
            compiled.append((
                geo.propagation_ms(previous.loc, router.loc) + 0.05,
                None if anonymous else self._jitter[router.rid]))
            previous = router
        return _Segment(hops, tuple(compiled), previous)

    def _crossing(self, router: Router, this_asn: int,
                  next_asn: int) -> Optional[_Segment]:
        """From ``router`` to the egress border router of ``this_asn``,
        then across the interdomain link into ``next_asn``; ``None``
        when a link or internal path is missing."""
        key = (router.rid, this_asn, next_asn)
        if key in self._crossings:
            return self._crossings[key]
        segment = None
        link = self._interdomain_link(this_asn, next_asn)
        if link is not None:
            egress = self._link_interface(link, this_asn)
            ingress = self._link_interface(link, next_asn)
            if egress is not None and ingress is not None:
                steps = self._internal_path(router, egress.router)
                if steps is not None:
                    # The next router answers with its interface on the
                    # shared subnet (supplier-addressed, or the IXP LAN).
                    segment = self._compile(
                        router, steps + [(ingress.router, ingress)])
        self._crossings[key] = segment
        return segment

    def _tail(self, router: Router, edge: Router) -> Optional[_Segment]:
        """From ``router`` to the destination's ``edge`` router inside
        the destination AS; ``None`` when no internal path exists."""
        key = (router.rid, edge.rid)
        if key not in self._tails:
            steps = self._internal_path(router, edge)
            self._tails[key] = None if steps is None \
                else self._compile(router, steps)
        return self._tails[key]

    def _prefix(self, path: Tuple[int, ...],
                vp_router: Router) -> _PrefixState:
        """The walk's state after ``path``, extending its parent prefix
        by one crossing.  A failed crossing keeps the parent's hops and
        marks the walk incomplete."""
        state = self._prefixes.get(path)
        if state is not None:
            return state
        if len(path) == 1:
            state = (array("I"), array("d"), 0.0, vp_router, True) \
                if self._columns else (False, None, 0.0, vp_router, True)
        else:
            hops, rtts, delay, router, complete = \
                self._prefix(path[:-1], vp_router)
            segment = self._crossing(router, path[-2], path[-1]) \
                if complete else None
            if segment is None:
                state = (hops, rtts, delay, router, False)
            else:
                self._report(segment)
                if self._columns:
                    hops, rtts = hops[:], rtts[:]
                    delay = _extend(hops, rtts, delay, segment)
                    state = (hops, rtts, delay, segment.end, True)
                else:
                    state = (True, None, delay, segment.end, True)
        self._prefixes[path] = state
        return state

    def _report(self, segment: _Segment) -> None:
        """Add ``segment``'s hops to the hop values of the sink being
        walked into, the first time it is walked into that sink."""
        if id(segment) not in self._reported:
            self._reported.add(id(segment))
            self._values.update(segment.hops)

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
             ) -> Optional[Tuple[int, "array[int]", "array[float]", bool]]:
        """One traceroute as ``(dst_asn, hops, rtts, reached)``, the
        columns :meth:`TraceSet.add` takes; ``None`` as in :meth:`trace`.

        It is :meth:`walk_groups` with one destination, into a trace set
        of its own, so every call starts a new prefix memo.  The
        returned arrays are the caller's.
        """
        groups = self.targets([dst_address])
        traces = TraceSet()
        if not self.walk_groups(traces, vp_asn, vp_router, groups)[0]:
            return None
        return groups[0][0], traces.hops, traces.rtts, any(traces.reached)

    def targets(self, destinations: Iterable[int]) -> List[TargetGroup]:
        """``destinations`` as :meth:`walk_groups` takes them: each run
        of consecutive destinations with one origin AS becomes one
        ``(origin AS, [(address, edge router), ...])`` group, in order.
        A destination with no origin AS is dropped: no walk reaches it.
        """
        groups: List[TargetGroup] = []
        for address in destinations:
            dst_asn = self._world.origin(address)
            if dst_asn <= 0:
                continue
            target = (address, self._edge_router_for(address, dst_asn))
            if groups and groups[-1][0] == dst_asn:
                groups[-1][1].append(target)
            else:
                groups.append((dst_asn, [target]))
        return groups

    def walk_groups(self, into: Union[TraceSet, Set[int]], vp_asn: int,
                    vp_router: Router, groups: Sequence[TargetGroup],
                    ) -> Tuple[int, int]:
        """Walk from ``vp_router`` to every target of ``groups``,
        appending one row per walk with hops to the columns of ``into``.

        The AS path and the walk's state on entering the group's AS are
        computed once per group, the tail to each edge router once per
        group and edge router; per target only the destination's reply
        is left.  Replies are drawn in target order, and only for walks
        that reach their edge router.

        Given a plain set instead of a :class:`TraceSet`, the walk is
        observed only: it adds to the set the values the rows' hop
        column would hold (:data:`ANONYMOUS` included) and writes no
        rows, copies no hops and computes no RTTs, with the same AS
        paths, segments and reply draws as a walk with columns.

        Returns ``(walks, rows)``: the groups walked (those the VP has a
        route to) and the rows written, or that a walk with columns
        would have written.
        """
        if into is not self._prefix_sink:
            self._prefix_sink, self._reported = into, set()
            self._columns = isinstance(into, TraceSet)
            self._values = into._hop_values() if self._columns else into
            self._prefix_vp = None
        if vp_router.rid != self._prefix_vp:
            self._prefix_vp = vp_router.rid
            self._prefixes = {}
        as_path, prefix = self._routing.as_path, self._prefix
        columns, hop_values = self._columns, self._values
        if columns:
            traces: TraceSet = into  # type: ignore[assignment]
            hop_column, rtt_column = traces.hops, traces.rtts
        vp_loc = vp_router.loc
        walked = rows = 0
        for dst_asn, targets in groups:
            path = as_path(vp_asn, dst_asn)
            if path is None:
                continue
            walked += 1
            hops, rtts, delay, router, complete = \
                prefix(tuple(path), vp_router)
            # Edge router id -> the walk's hops, RTTs and delay at the
            # edge router (delay None: the walk stops short of it); an
            # observed-only walk keeps whether it has hops for its hops.
            bodies: Dict[Optional[str], Tuple[object, object,
                                              Optional[float]]] = {}
            for dst_address, edge in targets:
                key = None if edge is None else edge.rid
                body = bodies.get(key)
                if body is None:
                    tail = None if edge is None or not complete \
                        else self._tail(router, edge)
                    if tail is None:
                        body = (hops, rtts, None)
                    else:
                        self._report(tail)
                        if columns:
                            body_hops, body_rtts = hops[:], rtts[:]
                            body = (body_hops, body_rtts, _extend(
                                body_hops, body_rtts, delay, tail))
                        else:
                            body = (hops or len(tail.hops) > 0, None, delay)
                    bodies[key] = body
                body_hops, body_rtts, end_delay = body
                reached = end_delay is not None \
                    and self._destination_responds(dst_address)
                if not body_hops and not reached:
                    continue
                rows += 1
                if reached:
                    hop_values.add(dst_address)
                if not columns:
                    continue
                traces.vp_asn.append(vp_asn)
                traces.dst_address.append(dst_address)
                traces.dst_asn.append(dst_asn)
                traces.vp_loc.append(vp_loc)
                traces.reached.append(reached)
                hop_column.extend(body_hops)
                rtt_column.extend(body_rtts)
                if reached:
                    hop_column.append(dst_address)
                    rtt_column.append(
                        round(2.0 * (end_delay + 0.05) + 0.5, 3))
                traces.offsets.append(len(hop_column))
        return walked, rows

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
