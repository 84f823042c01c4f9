"""Router-level topology built on top of the AS graph and address plan.

Each AS receives core routers (a ring with chords), edge routers hosting
its announced prefixes, and border routers terminating interdomain links.
Interconnection follows operational practice the paper highlights:

* a private interconnect is a /31 carved from the **supplying** AS's
  infrastructure space (the provider supplies on provider-customer links);
  both ends of the link -- including the neighbor's router -- therefore
  carry addresses registered and routed by the supplier;
* an IXP peering is realised by attaching each member's border router to
  the exchange's shared LAN, so members answer traceroute with
  IXP-owned addresses.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.topology.addressing import AddressPlan
from repro.topology.asgraph import ASGraph, ASNode, Tier
from repro.util.ipaddr import IPv4Prefix, int_to_ip
from repro.util.rand import substream


class InterfaceKind(enum.Enum):
    """Functional role of an interface; drives hostname style."""

    LOOPBACK = "loopback"
    INTERNAL = "internal"      # intra-AS point-to-point
    P2P = "p2p"                # private interdomain interconnect
    IXP_LAN = "ixp-lan"        # interface on an IXP peering LAN
    EDGE = "edge"              # attachment for destination prefixes


class LinkKind(enum.Enum):
    """How two routers are joined."""

    INTERNAL = "internal"
    INTERDOMAIN = "interdomain"
    IXP = "ixp"


@dataclass
class Interface:
    """One addressed interface of a router."""

    address: int
    prefix: IPv4Prefix
    router: "Router"
    kind: InterfaceKind
    supplier_asn: int                   # AS whose space the address is from
    neighbor_asn: Optional[int] = None  # far-side AS on interdomain links
    ixp_id: Optional[int] = None        # for IXP LAN interfaces
    port: str = ""                      # interface name hint, e.g. "te0-1-0"

    @property
    def ip(self) -> str:
        """Dotted-quad text of the address."""
        return int_to_ip(self.address)

    def __repr__(self) -> str:
        return "<Interface %s %s on %s>" % (self.ip, self.kind.value,
                                            self.router.rid)


@dataclass
class Link:
    """A point-to-point adjacency (or LAN attachment pair) between routers."""

    a: Interface
    b: Interface
    kind: LinkKind
    supplier_asn: int

    def other(self, iface: Interface) -> Interface:
        """The far end of the link relative to ``iface``."""
        if iface is self.a:
            return self.b
        if iface is self.b:
            return self.a
        raise ValueError("interface not on this link")


@dataclass
class Router:
    """A router with a ground-truth operator (the reproduction's oracle)."""

    rid: str
    asn: int                    # ground-truth operator
    role: str                   # core / edge / border / cpe
    loc: str
    index: int                  # per-AS ordinal, used in names
    interfaces: List[Interface] = field(default_factory=list)

    def add_interface(self, iface: Interface) -> None:
        """Attach ``iface`` to this router."""
        self.interfaces.append(iface)

    @property
    def name(self) -> str:
        """Base router name used by hostname templates, e.g. ``cr2``."""
        prefix = {"core": "cr", "edge": "er", "border": "br",
                  "cpe": "gw"}.get(self.role, "r")
        return "%s%d" % (prefix, self.index + 1)

    def __repr__(self) -> str:
        return "<Router %s AS%d %s>" % (self.rid, self.asn, self.role)

    def __hash__(self) -> int:
        return hash(self.rid)


@dataclass
class RouterLevelTopology:
    """All routers, interfaces and links of the synthetic Internet."""

    routers: List[Router]
    links: List[Link]
    interfaces_by_address: Dict[int, Interface]
    routers_by_asn: Dict[int, List[Router]]
    # (a, b) sorted ASN pair -> interdomain links between them
    interdomain_links: Dict[Tuple[int, int], List[Link]]
    # (ixp_id, member asn) -> the member's LAN interface
    ixp_ports: Dict[Tuple[int, int], Interface]
    # destination prefix -> edge router hosting it
    edge_router_of_prefix: Dict[IPv4Prefix, Router]
    # adjacency: router -> list of (link, far interface)
    adjacency: Dict[str, List[Tuple[Link, Interface]]] = field(
        default_factory=dict)

    def router_interfaces(self) -> List[Interface]:
        """Every interface across every router."""
        return [iface for router in self.routers
                for iface in router.interfaces]

    def neighbors(self, router: Router) -> List[Tuple[Link, Interface]]:
        """Adjacent (link, far interface) pairs for ``router``."""
        return self.adjacency.get(router.rid, [])


_CORE_COUNT = {
    Tier.CLIQUE: 6,
    Tier.TRANSIT: 4,
    Tier.ACCESS: 2,
    Tier.CONTENT: 2,
    Tier.STUB: 1,
}

_EDGE_COUNT = {
    Tier.CLIQUE: 3,
    Tier.TRANSIT: 2,
    Tier.ACCESS: 2,
    Tier.CONTENT: 1,
    Tier.STUB: 1,
}

_PORT_STYLES = ["te%d-%d-%d", "ge%d-%d-%d", "xe%d-%d-%d", "et%d-%d-%d",
                "hu%d-%d-%d"]


class _Builder:
    """Stateful helper assembling the router-level topology."""

    def __init__(self, graph: ASGraph, plan: AddressPlan, seed: int) -> None:
        self.graph = graph
        self.plan = plan
        self.rng = substream(seed, "routers")
        self.routers: List[Router] = []
        self.links: List[Link] = []
        self.by_asn: Dict[int, List[Router]] = defaultdict(list)
        self.interdomain: Dict[Tuple[int, int], List[Link]] = defaultdict(list)
        self.ixp_ports: Dict[Tuple[int, int], Interface] = {}
        self.edge_of_prefix: Dict[IPv4Prefix, Router] = {}
        self._counters: Dict[Tuple[int, str], int] = defaultdict(int)
        self._border_rr: Dict[int, int] = defaultdict(int)

    # -- router/interface primitives -------------------------------------

    def new_router(self, node: ASNode, role: str) -> Router:
        index = self._counters[(node.asn, role)]
        self._counters[(node.asn, role)] += 1
        loc = node.loc_codes[index % len(node.loc_codes)]
        router = Router(rid="r%d-%s%d" % (node.asn, role, index),
                        asn=node.asn, role=role, loc=loc, index=index)
        self.routers.append(router)
        self.by_asn[node.asn].append(router)
        return router

    def port_name(self) -> str:
        style = self.rng.choice(_PORT_STYLES)
        return style % (self.rng.randint(0, 2), self.rng.randint(0, 4),
                        self.rng.randint(0, 9))

    def attach(self, router: Router, address: int, prefix: IPv4Prefix,
               kind: InterfaceKind, supplier: int,
               neighbor: Optional[int] = None,
               ixp_id: Optional[int] = None) -> Interface:
        iface = Interface(address=address, prefix=prefix, router=router,
                          kind=kind, supplier_asn=supplier,
                          neighbor_asn=neighbor, ixp_id=ixp_id,
                          port=self.port_name())
        router.add_interface(iface)
        return iface

    def internal_link(self, ra: Router, rb: Router) -> Link:
        """Join two routers of the same AS with a /31 from that AS."""
        asn = ra.asn
        subnet = self.plan.infra[asn].p2p_subnet()
        ia = self.attach(ra, subnet.host(0), subnet,
                         InterfaceKind.INTERNAL, asn)
        ib = self.attach(rb, subnet.host(1), subnet,
                         InterfaceKind.INTERNAL, asn)
        link = Link(a=ia, b=ib, kind=LinkKind.INTERNAL, supplier_asn=asn)
        self.links.append(link)
        return link

    # -- per-AS internals -------------------------------------------------

    def build_as_internals(self, node: ASNode) -> None:
        cores = [self.new_router(node, "core")
                 for _ in range(_CORE_COUNT[node.tier])]
        # Loopbacks on core routers.
        for router in cores:
            alloc = self.plan.infra[node.asn]
            address = alloc.loopback()
            self.attach(router, address, IPv4Prefix(address, 32),
                        InterfaceKind.LOOPBACK, node.asn)
        # Ring plus a chord for larger networks.
        if len(cores) > 1:
            for i, router in enumerate(cores):
                self.internal_link(router, cores[(i + 1) % len(cores)])
            if len(cores) >= 5:
                self.internal_link(cores[0], cores[len(cores) // 2])
        # Edge routers: host the AS's destination prefixes.
        edges = [self.new_router(node, "edge")
                 for _ in range(_EDGE_COUNT[node.tier])]
        for i, router in enumerate(edges):
            self.internal_link(router, cores[i % len(cores)])
        edge_prefixes = self.plan.edge_prefixes(node.asn)
        for i, prefix in enumerate(edge_prefixes):
            self.edge_of_prefix[prefix] = edges[i % len(edges)]

    def border_router(self, node: ASNode) -> Router:
        """A border router for a new interdomain attachment.

        Border routers are reused for up to three attachments so that
        multi-neighbor border routers exist (they make election
        heuristics interesting).
        """
        existing = [r for r in self.by_asn[node.asn] if r.role == "border"]
        if existing:
            candidate = existing[self._border_rr[node.asn] % len(existing)]
            attach_count = sum(1 for i in candidate.interfaces
                               if i.kind in (InterfaceKind.P2P,
                                             InterfaceKind.IXP_LAN))
            if attach_count < 3:
                self._border_rr[node.asn] += 1
                return candidate
        router = self.new_router(node, "border")
        cores = [r for r in self.by_asn[node.asn] if r.role == "core"]
        self.internal_link(router, self.rng.choice(cores))
        return router

    # -- interdomain links --------------------------------------------------

    def private_link(self, supplier: ASNode, other: ASNode) -> None:
        subnet = self.plan.infra[supplier.asn].p2p_subnet()
        ra = self.border_router(supplier)
        rb = self.border_router(other)
        ia = self.attach(ra, subnet.host(0), subnet, InterfaceKind.P2P,
                         supplier.asn, neighbor=other.asn)
        ib = self.attach(rb, subnet.host(1), subnet, InterfaceKind.P2P,
                         supplier.asn, neighbor=supplier.asn)
        link = Link(a=ia, b=ib, kind=LinkKind.INTERDOMAIN,
                    supplier_asn=supplier.asn)
        self.links.append(link)
        key = (min(supplier.asn, other.asn), max(supplier.asn, other.asn))
        self.interdomain[key].append(link)

    def build_interdomain(self) -> None:
        rels = self.graph.relationships
        lan_pairs: Set[Tuple[int, int]] = set()
        for ixp in self.graph.ixps:
            for a, b in ixp.lan_peerings:
                lan_pairs.add((min(a, b), max(a, b)))
        seen: Set[Tuple[int, int]] = set()
        for asn in self.graph.asns():
            node = self.graph.node(asn)
            for customer in sorted(rels.customers(asn)):
                self.private_link(node, self.graph.node(customer))
                # Some customers take a redundant second link; the
                # backup is provisioned and named but carries no
                # traffic, so traceroute never observes it -- the
                # hidden-interconnection population of section 7.
                if self.rng.random() < 0.25:
                    self.private_link(node, self.graph.node(customer))
            for peer in sorted(rels.peers(asn)):
                key = (min(asn, peer), max(asn, peer))
                if key in seen or key in lan_pairs:
                    continue
                seen.add(key)
                # The structurally larger network supplies the subnet.
                peer_node = self.graph.node(peer)
                if rels.degree(peer) > rels.degree(asn):
                    self.private_link(peer_node, node)
                else:
                    self.private_link(node, peer_node)

    def build_ixps(self) -> None:
        for ixp in self.graph.ixps:
            lan = self.plan.ixp_lans[ixp.ixp_id]
            host = 1
            for member in ixp.members:
                node = self.graph.node(member)
                router = self.border_router(node)
                iface = self.attach(router, lan.host(host), lan,
                                    InterfaceKind.IXP_LAN, supplier=-1,
                                    ixp_id=ixp.ixp_id)
                self.ixp_ports[(ixp.ixp_id, member)] = iface
                host += 1
            # Wire LAN peerings as links between member interfaces.
            for a, b in ixp.lan_peerings:
                ia = self.ixp_ports[(ixp.ixp_id, a)]
                ib = self.ixp_ports[(ixp.ixp_id, b)]
                link = Link(a=ia, b=ib, kind=LinkKind.IXP, supplier_asn=-1)
                self.links.append(link)
                key = (min(a, b), max(a, b))
                self.interdomain[key].append(link)

    # -- assembly ----------------------------------------------------------

    def finish(self) -> RouterLevelTopology:
        by_address: Dict[int, Interface] = {}
        for router in self.routers:
            for iface in router.interfaces:
                by_address[iface.address] = iface
        adjacency: Dict[str, List[Tuple[Link, Interface]]] = defaultdict(list)
        for link in self.links:
            adjacency[link.a.router.rid].append((link, link.b))
            adjacency[link.b.router.rid].append((link, link.a))
        return RouterLevelTopology(
            routers=self.routers,
            links=self.links,
            interfaces_by_address=by_address,
            routers_by_asn=dict(self.by_asn),
            interdomain_links=dict(self.interdomain),
            ixp_ports=self.ixp_ports,
            edge_router_of_prefix=self.edge_of_prefix,
            adjacency=dict(adjacency),
        )


def build_router_topology(graph: ASGraph, plan: AddressPlan,
                          seed: int) -> RouterLevelTopology:
    """Construct the router-level topology for ``graph`` and ``plan``."""
    builder = _Builder(graph, plan, seed)
    for asn in graph.asns():
        builder.build_as_internals(graph.node(asn))
    builder.build_interdomain()
    builder.build_ixps()
    return builder.finish()
