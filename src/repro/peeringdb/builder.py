"""Build a synthetic PeeringDB snapshot from a world.

Members record their exchange ports with realistic imperfections:

* not every member participates (``participation``);
* organizations with several ASNs usually record the *organization's
  primary ASN* even when the port is operated under a sibling ASN --
  the exact mismatch behind the paper's five Table-2 false positives;
* a small fraction of records is stale (an old ASN entirely).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.peeringdb.snapshot import IXRecord, NetIXLan, PeeringDBSnapshot
from repro.topology.world import World
from repro.util.rand import substream


@dataclass
class PeeringDBConfig:
    """Record-quality knobs."""

    participation: float = 0.85       # members that bother to register
    record_primary_rate: float = 0.2  # sibling orgs recording primary ASN
    stale_record_rate: float = 0.01   # plainly wrong records


def _primary_asn(world: World, asn: int) -> int:
    """The organization's primary ASN: its lowest (oldest-looking) one."""
    return min(world.graph.orgs.siblings(asn))


def build_peeringdb(world: World, seed: int, label: str,
                    config: Optional[PeeringDBConfig] = None,
                    ) -> PeeringDBSnapshot:
    """Synthesize the PeeringDB view of every IXP in the world."""
    config = config or PeeringDBConfig()
    rng = substream(seed, "peeringdb", label)
    snapshot = PeeringDBSnapshot(label=label)
    all_asns = world.graph.asns()

    for ixp in world.graph.ixps:
        snapshot.ixes.append(IXRecord(ix_id=ixp.ixp_id,
                                      name=ixp.slug.upper(),
                                      country=ixp.country))
        for member in ixp.members:
            port = world.topology.ixp_ports.get((ixp.ixp_id, member))
            if port is None:
                continue
            if rng.random() > config.participation:
                continue
            recorded = member
            primary = _primary_asn(world, member)
            if primary != member \
                    and rng.random() < config.record_primary_rate:
                recorded = primary
            if rng.random() < config.stale_record_rate:
                recorded = rng.choice(all_asns)
            snapshot.netixlans.append(NetIXLan(
                ix_id=ixp.ixp_id, asn=recorded, ipaddr4=port.address))
    return snapshot
