"""Synthetic PeeringDB snapshots.

PeeringDB gives the paper a second, operator-curated source of training
ASNs: members record which ASN sits behind each exchange-LAN address
(netixlan objects).  The synthetic snapshot reproduces the error modes
the paper observed -- organizations recording their main ASN while the
hostname embeds the sibling ASN actually used at the exchange, plus a
small rate of stale records.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.peeringdb.snapshot": ("IXRecord", "NetIXLan", "PeeringDBSnapshot"),
    "repro.peeringdb.builder": ("PeeringDBConfig", "build_peeringdb"),
})
