"""Alias resolution: grouping observed interfaces into inferred routers.

Stands in for MIDAR/iffinder in ITDK construction.  Resolution starts
from the ground-truth router of each observed interface, then degrades it
with configurable *split* noise (a router's interfaces partitioned into
several inferred nodes -- the dominant real-world error, since alias
resolution is conservative) and optional *merge* noise.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.alias.midar": (
        "AliasResolution", "InferredNode", "resolve_aliases",
    ),
})
