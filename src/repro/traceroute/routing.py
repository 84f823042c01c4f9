"""AS-level forwarding under the Gao-Rexford policy model.

Routes propagate per destination AS in three passes:

1. **customer routes** climb provider links (everyone announces to their
   providers what they and their customers originate);
2. **peer routes** cross exactly one peer link from an AS holding a
   customer route (peers exchange only customer routes);
3. **provider routes** descend customer links (providers announce
   everything to customers).

Each AS prefers customer > peer > provider routes, then shortest AS
path, then the lowest next-hop ASN (a deterministic stand-in for
tie-break policy).  The resulting next-hop matrix yields valley-free
paths by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.asn.relationships import ASRelationships
from repro.topology.asgraph import ASGraph

# Route preference classes, lower is better.
_CUSTOMER, _PEER, _PROVIDER = 0, 1, 2


class RoutingModel:
    """Next-hop forwarding state for every (source, destination) AS pair.

    Per-destination next-hop vectors are computed lazily on first query
    and memoised, so a model serving only a few destinations (a TINY
    campaign, a restricted benchmark) never pays the full O(V * E)
    construction, and the pickle shipped to worker processes carries
    only what was actually computed.  :meth:`precompute` restores the
    eager behaviour for full campaigns; ``eager=True`` at construction
    does the same.  Queries against an eager and a lazy model are
    identical by construction (same per-destination solver).

    >>> # doctest-level example lives in tests/traceroute/test_routing.py
    """

    def __init__(self, graph: ASGraph, eager: bool = False) -> None:
        self._graph = graph
        self._rels = graph.relationships
        self._asns = graph.asns()
        self._index = {asn: i for i, asn in enumerate(self._asns)}
        # next_hop[dst][src] -> next AS towards dst (or None / dst itself)
        self._next_hop: Dict[int, List[Optional[int]]] = {}
        if eager:
            self.precompute()

    def precompute(self, dsts: Optional[Iterable[int]] = None
                   ) -> "RoutingModel":
        """Eagerly solve routes towards ``dsts`` (default: every AS).

        Returns ``self`` so construction and precomputation chain:
        ``RoutingModel(graph).precompute()``.  Unknown destinations are
        ignored, matching :meth:`next_hop` query semantics.
        """
        for dst in (self._asns if dsts is None else dsts):
            if dst in self._index:
                self._hops_to(dst)
        return self

    @property
    def computed_destinations(self) -> int:
        """How many per-destination vectors have been solved so far."""
        return len(self._next_hop)

    def _hops_to(self, dst: int) -> List[Optional[int]]:
        """The (memoised) next-hop vector towards ``dst``."""
        hops = self._next_hop.get(dst)
        if hops is None:
            hops = self._next_hop[dst] = self._routes_to(dst)
        return hops

    def _routes_to(self, dst: int) -> List[Optional[int]]:
        """Best next hop towards ``dst`` for every AS."""
        rels = self._rels
        n = len(self._asns)
        index = self._index
        # (pref, dist, tiebreak) per AS; next hop per AS
        best: List[Optional[Tuple[int, int, int]]] = [None] * n
        hop: List[Optional[int]] = [None] * n

        di = index[dst]
        best[di] = (_CUSTOMER, 0, 0)

        # Pass 1: customer routes climb provider links breadth-first.
        frontier = deque([dst])
        while frontier:
            asn = frontier.popleft()
            ai = index[asn]
            pref, dist, _ = best[ai]  # type: ignore[misc]
            for provider in rels.providers(asn):
                pi = index[provider]
                candidate = (_CUSTOMER, dist + 1, asn)
                if best[pi] is None or candidate < best[pi]:
                    if best[pi] is None:
                        frontier.append(provider)
                    best[pi] = candidate
                    hop[pi] = asn

        # Pass 2: one peer hop from any AS holding a customer route.
        peer_updates: List[Tuple[int, Tuple[int, int, int], int]] = []
        for asn in self._asns:
            ai = index[asn]
            entry = best[ai]
            if entry is None or entry[0] != _CUSTOMER:
                continue
            for peer in rels.peers(asn):
                pi = index[peer]
                candidate = (_PEER, entry[1] + 1, asn)
                if best[pi] is None or candidate < best[pi]:
                    peer_updates.append((pi, candidate, asn))
        for pi, candidate, via in peer_updates:
            if best[pi] is None or candidate < best[pi]:
                best[pi] = candidate
                hop[pi] = via

        # Pass 3: provider routes descend customer links breadth-first.
        # Seed with every AS currently holding a route; customers may
        # then learn from their providers, iterating to fixpoint.
        frontier = deque(asn for asn in self._asns
                         if best[index[asn]] is not None)
        while frontier:
            asn = frontier.popleft()
            ai = index[asn]
            entry = best[ai]
            if entry is None:
                continue
            for customer in rels.customers(asn):
                ci = index[customer]
                candidate = (_PROVIDER, entry[1] + 1, asn)
                if best[ci] is None or candidate < best[ci]:
                    best[ci] = candidate
                    hop[ci] = asn
                    frontier.append(customer)

        return hop

    # -- queries -----------------------------------------------------------

    def next_hop(self, src: int, dst: int) -> Optional[int]:
        """Next AS on ``src``'s best route towards ``dst``.

        ``None`` when src has no route; ``dst`` itself on the last step.
        """
        if src == dst:
            return dst
        if dst not in self._index:
            return None
        return self._hops_to(dst)[self._index[src]]

    def as_path(self, src: int, dst: int,
                max_len: int = 32) -> Optional[List[int]]:
        """The AS-level path from ``src`` to ``dst`` (inclusive).

        Returns ``None`` when no route exists.  Equal to following
        :meth:`next_hop` from ``src``, reading the vector towards
        ``dst`` once.
        """
        if src == dst:
            return [src]
        if dst not in self._index:
            return None
        hops, index = self._hops_to(dst), self._index
        path = [src]
        current = src
        for _ in range(max_len):
            nxt = hops[index[current]]
            if nxt is None:
                return None
            path.append(nxt)
            if nxt == dst:
                return path
            current = nxt
        return None

    def reachable(self, src: int, dst: int) -> bool:
        """True when ``src`` holds a route towards ``dst``."""
        return self.as_path(src, dst) is not None
