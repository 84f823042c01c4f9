"""Hostname assignment for the synthetic Internet.

The AS that supplies an interface's address owns the reverse DNS zone and
chooses the hostname -- the central operational fact of the paper
(figure 1).  This package models per-operator naming conventions across
the taxonomy of Table 1 (simple/start/end/bare/complex), plus the
conventions that must *not* yield usable ASN regexes: decorating every
hostname with the operator's own ASN (figure 2), embedding AS names
instead of numbers, geography-only names, and IP-derived names
(figure 3b).  It also injects the data-quality hazards the paper handles:
stale hostnames, single-edit typos (figure 3a), and sibling-ASN
annotations.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.naming.conventions": (
        "ConventionProfile", "EmbedKind", "IXPNamingMode", "Style",
        "profile_for_as", "ixp_mode_for",
    ),
    "repro.naming.assigner": (
        "HostnameRecord", "NamingConfig", "NamingOutcome", "NamingPlan",
        "assign_hostnames",
    ),
    "repro.naming.asnames": ("as_name_tokens",),
})
