"""Unit tests for the annotation heuristics."""

from repro.alias.midar import AliasResolution, InferredNode
from repro.asn.bgp import RouteTable
from repro.asn.org import ASOrgMap
from repro.asn.relationships import ASRelationships
from repro.bdrmapit.algorithm import AnnotationConfig, annotate
from repro.bdrmapit.graph import build_router_graph
from repro.traceroute.probe import Trace
from repro.util.ipaddr import IPv4Prefix, ip_to_int


P, C, C2, PEER = 3356, 64500, 64501, 1299


def _resolution(nodes):
    resolution = AliasResolution()
    for node_id, addresses in nodes.items():
        node = InferredNode(node_id=node_id,
                            addresses=[ip_to_int(a) for a in addresses])
        resolution.nodes[node_id] = node
        for address in node.addresses:
            resolution.node_of_address[address] = node_id
    return resolution


def _table():
    table = RouteTable()
    table.announce(IPv4Prefix.parse("10.0.0.0/8"), P)
    table.announce(IPv4Prefix.parse("20.0.0.0/8"), C)
    table.announce(IPv4Prefix.parse("30.0.0.0/8"), C2)
    table.announce(IPv4Prefix.parse("40.0.0.0/8"), PEER)
    table.add_ixp_prefix(IPv4Prefix.parse("206.0.0.0/24"))
    return table


def _rels():
    rels = ASRelationships()
    rels.add_p2c(P, C)
    rels.add_p2c(P, C2)
    rels.add_p2p(P, PEER)
    return rels


def _trace(dst, dst_asn, *hops):
    return Trace(vp_asn=1, dst_address=ip_to_int(dst), dst_asn=dst_asn,
                 hops=[ip_to_int(h) for h in hops], reached=True)


def _annotate(nodes, traces, config=None):
    resolution = _resolution(nodes)
    graph = build_router_graph(resolution, traces, _table())
    return annotate(graph, _rels(), ASOrgMap(), config)


class TestVotes:
    def test_far_side_border_annotated_customer(self):
        """Figure 1: the customer's border answers with the
        provider-supplied address; subsequent votes say customer."""
        annotations = _annotate(
            {"cB": ["10.0.1.1"], "cI": ["20.0.0.5"]},
            [_trace("20.9.9.9", C, "10.0.1.1", "20.0.0.5", "20.9.9.9")])
        assert annotations["cB"] == C

    def test_provider_side_border_stays_provider(self):
        """The provider's own border sees its supplied far side (origin
        P), so it stays annotated P."""
        annotations = _annotate(
            {"pB": ["10.0.0.1"], "cB": ["10.0.1.1"], "cI": ["20.0.0.5"]},
            [_trace("20.9.9.9", C, "10.0.0.1", "10.0.1.1", "20.0.0.5",
                    "20.9.9.9")])
        assert annotations["pB"] == P
        assert annotations["cB"] == C

    def test_mate_vote_skipped(self):
        """With complete aliases, the far side of the node's own /31
        must not poison the vote (the reverse-direction hazard)."""
        annotations = _annotate(
            # cB holds both its provider-supplied address and its own.
            {"cB": ["10.0.1.1", "20.0.0.1"],
             "pB": ["10.0.1.0", "10.0.0.1"],
             "cI": ["20.0.0.5"]},
            [
                # Forward: into the customer.
                _trace("20.9.9.9", C, "10.0.1.1", "20.0.0.5", "20.9.9.9"),
                # Reverse: out of the customer towards the provider;
                # cB's subsequent is pB's 10.0.1.0 -- its own link mate.
                _trace("10.9.9.9", P, "20.0.0.5", "20.0.0.1", "10.0.1.0",
                       "10.9.9.9"),
            ])
        assert annotations["cB"] == C
        assert annotations["pB"] == P

    def test_unrelated_votes_fall_back_to_election(self):
        # Node with P-only origins whose votes point at an AS unrelated
        # to P is left at its election.
        rels = ASRelationships()   # no relationships at all
        resolution = _resolution({"n": ["10.0.0.1"], "x": ["40.0.0.1"]})
        graph = build_router_graph(
            resolution,
            [_trace("40.9.9.9", PEER, "10.0.0.1", "40.0.0.1", "40.9.9.9")],
            _table())
        annotations = annotate(graph, rels, ASOrgMap())
        assert annotations["n"] == P


class TestRelationshipElection:
    def test_multihomed_customer(self):
        """A border holding two provider-supplied addresses plus its own
        is annotated with the customer (every other origin supplies)."""
        rels = ASRelationships()
        rels.add_p2c(P, C)
        rels.add_p2c(PEER, C)   # PEER here acts as a second provider
        resolution = _resolution(
            {"cB": ["10.0.1.1", "40.0.1.1", "20.0.0.1"]})
        graph = build_router_graph(resolution, [], _table())
        annotations = annotate(graph, rels, ASOrgMap())
        assert annotations["cB"] == C

    def test_disabled_by_config(self):
        rels = ASRelationships()
        rels.add_p2c(P, C)
        rels.add_p2c(PEER, C)
        resolution = _resolution(
            {"cB": ["10.0.1.1", "40.0.1.1", "20.0.0.1"]})
        graph = build_router_graph(resolution, [], _table())
        config = AnnotationConfig(use_relationship_election=False,
                                  use_dest_heuristic=False)
        annotations = annotate(graph, rels, ASOrgMap(), config)
        # Plain election: all origins tie with one vote; min ASN wins.
        assert annotations["cB"] == min(P, C, PEER)


class TestDestHeuristic:
    def test_last_hop_customer_router(self):
        """A trace dying at the customer's border (provider address):
        the node is predominantly last, destinations are in C, C is a
        customer of the election result P -> annotate C."""
        annotations = _annotate(
            {"cB": ["10.0.1.1"]},
            [Trace(vp_asn=1, dst_address=ip_to_int("20.9.9.9"), dst_asn=C,
                   hops=[ip_to_int("10.0.1.1")])])
        assert annotations["cB"] == C

    def test_gate_blocks_transited_nodes(self):
        """A provider core router transited by many traces and last for
        one must keep the provider annotation."""
        transit = [_trace("20.9.9.9", C, "10.0.0.1", "10.0.1.1",
                          "20.0.0.5", "20.9.9.9")] * 3
        dying = [Trace(vp_asn=1, dst_address=ip_to_int("20.8.8.8"),
                       dst_asn=C, hops=[ip_to_int("10.0.0.1")])]
        annotations = _annotate(
            {"pR": ["10.0.0.1"], "cB": ["10.0.1.1"], "cI": ["20.0.0.5"]},
            transit + dying)
        assert annotations["pR"] == P

    def test_unrelated_dest_ignored(self):
        """Traces to a non-customer AS dying at a provider router leave
        the election in place."""
        annotations = _annotate(
            {"pR": ["10.0.0.1"]},
            [Trace(vp_asn=1, dst_address=ip_to_int("40.9.9.9"),
                   dst_asn=PEER, hops=[ip_to_int("10.0.0.1")])])
        assert annotations["pR"] == P

    def test_disabled_by_config(self):
        config = AnnotationConfig(use_dest_heuristic=False)
        annotations = _annotate(
            {"cB": ["10.0.1.1"]},
            [Trace(vp_asn=1, dst_address=ip_to_int("20.9.9.9"), dst_asn=C,
                   hops=[ip_to_int("10.0.1.1")])],
            config)
        assert annotations["cB"] == P


class TestElectionFallback:
    def test_pure_election(self):
        annotations = _annotate(
            {"n": ["20.0.0.1", "20.0.0.9", "10.0.0.1"]}, [])
        assert annotations["n"] == C

    def test_ixp_only_node_unannotated(self):
        annotations = _annotate({"n": ["206.0.0.5"]}, [])
        assert "n" not in annotations

    def test_siblings_accepted_in_votes(self):
        orgs = ASOrgMap()
        orgs.assign(P, "org-x")
        orgs.assign(C2, "org-x")   # C2 is P's sibling
        resolution = _resolution({"n": ["10.0.0.1"], "i": ["30.0.0.5"]})
        rels = ASRelationships()   # no relationship between P and C2
        graph = build_router_graph(
            resolution,
            [_trace("30.9.9.9", C2, "10.0.0.1", "30.0.0.5", "30.9.9.9")],
            _table())
        annotations = annotate(graph, rels, orgs)
        assert annotations["n"] == C2
