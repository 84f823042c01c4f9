"""RouterToAsAssignment (Huffaker et al. 2010).

The best-performing heuristic from that work, as the paper summarises it
(section 2.1): annotate each router with the AS announcing the longest
matching prefix for the *most* of its interfaces (election), breaking
ties by choosing the AS with the smaller degree.  Because border routers
of stub networks are usually observed only through their
provider-supplied address, this heuristic systematically mislabels them
-- the error mode bdrmapIT later fixed and figure 6 quantifies.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.alias.midar import AliasResolution
from repro.asn.bgp import IXP_ASN, RouteTable, UNKNOWN_ASN
from repro.asn.relationships import ASRelationships


def assign_asns(resolution: AliasResolution, route_table: RouteTable,
                relationships: Optional[ASRelationships] = None,
                ) -> Dict[str, int]:
    """Annotate every inferred node via election + degree tie-break.

    Nodes whose every interface is unrouted or IXP-addressed stay
    unannotated (absent from the result).
    """
    annotations: Dict[str, int] = {}
    for node_id in sorted(resolution.nodes):
        node = resolution.nodes[node_id]
        votes: Counter = Counter()
        for address in node.addresses:
            origin = route_table.origin(address)
            if origin == UNKNOWN_ASN:
                continue
            if origin == IXP_ASN:
                # RouterToAsAssignment is not IXP-aware: the LAN
                # prefix counts for whatever AS it is registered to --
                # the misattribution bdrmap-era methods later fixed.
                # The /24 LAN is a weaker longest-prefix match than the
                # member's own space, so it carries half a vote: any
                # real interface outvotes it, but LAN-only routers are
                # credited to the exchange operator.
                org = route_table.ixp_org(address)
                if org is None:
                    continue
                votes[org] += 0.5
                continue
            votes[origin] += 1
        if not votes:
            continue
        top_count = max(votes.values())
        leaders = sorted(asn for asn, count in votes.items()
                         if count == top_count)
        if len(leaders) > 1 and relationships is not None:
            leaders.sort(key=lambda asn: (relationships.degree(asn), asn))
        annotations[node_id] = leaders[0]
    return annotations
