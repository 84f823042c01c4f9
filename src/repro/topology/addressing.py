"""Address plan for the synthetic Internet.

Every AS receives announced prefixes sized by tier; the first prefix of
each AS doubles as its *infrastructure* block, from which loopbacks,
internal point-to-point subnets, and -- crucially -- the /31 interconnect
subnets it *supplies to neighbors* are carved.  IXP peering LANs come from
a separate pool and are registered with the route table's IXP sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.asn.bgp import RouteTable
from repro.topology.asgraph import ASGraph, Tier
from repro.util.ipaddr import IPv4Prefix


_TIER_PREFIX_LEN = {
    Tier.CLIQUE: 14,
    Tier.TRANSIT: 16,
    Tier.ACCESS: 17,
    Tier.CONTENT: 18,
    Tier.STUB: 20,
}

_UNICAST_POOL = IPv4Prefix.parse("4.0.0.0/6")
_IXP_POOL = IPv4Prefix.parse("206.0.0.0/10")


class InfraAllocator:
    """Sequential allocator over an AS's infrastructure block.

    Hands out loopback /32s, internal /31s, and supplied interconnect /31s
    without overlap.  Deterministic: identical call sequences produce
    identical addresses.
    """

    def __init__(self, block: IPv4Prefix) -> None:
        self._block = block
        self._next = block.network

    @property
    def block(self) -> IPv4Prefix:
        """The infrastructure block being carved."""
        return self._block

    def _take(self, length: int) -> IPv4Prefix:
        size = 1 << (32 - length)
        # Align the cursor to the requested size.
        aligned = (self._next + size - 1) & ~(size - 1)
        if aligned + size > self._block.network + self._block.size:
            raise RuntimeError("infrastructure block %s exhausted"
                               % self._block)
        self._next = aligned + size
        return IPv4Prefix(aligned, length)

    def loopback(self) -> int:
        """Allocate one loopback address."""
        return self._take(32).network

    def p2p_subnet(self) -> IPv4Prefix:
        """Allocate one /31 point-to-point subnet."""
        return self._take(31)


@dataclass
class AddressPlan:
    """Prefix allocations plus the BGP view derived from them."""

    route_table: RouteTable
    as_prefixes: Dict[int, List[IPv4Prefix]]
    infra: Dict[int, InfraAllocator]
    ixp_lans: Dict[int, IPv4Prefix] = field(default_factory=dict)

    def prefixes(self, asn: int) -> List[IPv4Prefix]:
        """Announced prefixes of ``asn``."""
        return self.as_prefixes.get(asn, [])

    def edge_prefixes(self, asn: int) -> List[IPv4Prefix]:
        """Prefixes of ``asn`` excluding the infrastructure block.

        Edge prefixes host the addresses traceroute campaigns target.
        When an AS has a single prefix, its non-infra back half is used.
        """
        allocated = self.as_prefixes.get(asn, [])
        if not allocated:
            return []
        if len(allocated) > 1:
            return allocated[1:]
        # Single prefix: split off the back half for edge addresses.
        first = allocated[0]
        if first.length >= 24:
            return [first]
        halves = list(first.subnets(first.length + 1))
        return [halves[1]]


def build_address_plan(graph: ASGraph) -> AddressPlan:
    """Allocate prefixes for every AS and LAN for every IXP.

    Allocation order is the sorted ASN order, so the plan is a pure
    function of the graph.
    """
    route_table = RouteTable()
    as_prefixes: Dict[int, List[IPv4Prefix]] = {}
    infra: Dict[int, InfraAllocator] = {}

    cursor = _UNICAST_POOL.network
    limit = _UNICAST_POOL.network + _UNICAST_POOL.size

    def take(length: int) -> IPv4Prefix:
        nonlocal cursor
        size = 1 << (32 - length)
        aligned = (cursor + size - 1) & ~(size - 1)
        if aligned + size > limit:
            raise RuntimeError("unicast pool exhausted")
        cursor = aligned + size
        return IPv4Prefix(aligned, length)

    for asn in graph.asns():
        node = graph.node(asn)
        length = _TIER_PREFIX_LEN[node.tier]
        first = take(length)
        prefixes = [first]
        # Large networks announce a second, distant prefix so that
        # election heuristics see multiple origins occasionally.
        if node.tier in (Tier.CLIQUE, Tier.TRANSIT):
            prefixes.append(take(length + 2))
        for prefix in prefixes:
            route_table.announce(prefix, asn)
        as_prefixes[asn] = prefixes
        # Infrastructure: front quarter of the first prefix.
        infra_block = next(iter(first.subnets(min(first.length + 2, 32))))
        infra[asn] = InfraAllocator(infra_block)

    plan = AddressPlan(route_table=route_table, as_prefixes=as_prefixes,
                       infra=infra)

    ixp_cursor = _IXP_POOL.network
    for ixp in graph.ixps:
        lan = IPv4Prefix(ixp_cursor, 24)
        ixp_cursor += lan.size
        route_table.add_ixp_prefix(lan, org_asn=ixp.org_asn or None)
        plan.ixp_lans[ixp.ixp_id] = lan

    return plan
