"""Internet Topology Data Kit (ITDK) snapshots.

An ITDK snapshot bundles what CAIDA publishes: inferred routers (nodes)
with their interface addresses, per-address hostnames from PTR lookups,
and per-node AS annotations produced by RouterToAsAssignment or bdrmapIT.
:mod:`repro.itdk.snapshot` defines the data model with ITDK-flavoured
text serialization; :mod:`repro.itdk.builder` assembles snapshots from
traceroute campaigns over a synthetic world.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.itdk.snapshot": ("ITDKSnapshot",),
    "repro.itdk.builder": ("BuildConfig", "build_snapshot"),
})
