"""AS-number infrastructure: relationships, organizations, and BGP state.

These mirror the external datasets the paper's pipeline consumes:

* :mod:`repro.asn.relationships` -- CAIDA-style AS relationship inferences
  (provider/customer and peer links) with the queries bdrmapIT needs.
* :mod:`repro.asn.org` -- AS-to-organization mapping; two ASNs are
  *siblings* when the same organization operates both (used by the paper's
  section 4 sibling adjustment and the section 5 reasonableness test).
* :mod:`repro.asn.bgp` -- a routing information base mapping prefixes to
  origin ASNs, longest-prefix-match IP-to-AS, and IXP prefix handling.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.asn.relationships": ("ASRelationships", "Relationship"),
    "repro.asn.org": ("ASOrgMap",),
    "repro.asn.bgp": ("RouteTable", "IXP_ASN", "UNKNOWN_ASN"),
})
