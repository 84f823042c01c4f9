"""PeeringDB snapshot data model (the subset the paper consumes)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.ipaddr import int_to_ip, ip_to_int


@dataclass(frozen=True)
class IXRecord:
    """One exchange (PeeringDB ``ix`` object, trimmed)."""

    ix_id: int
    name: str
    country: str


@dataclass(frozen=True)
class NetIXLan:
    """A member port on an exchange LAN (PeeringDB ``netixlan``)."""

    ix_id: int
    asn: int                  # the ASN the operator recorded
    ipaddr4: int              # LAN address of the port

    @property
    def ip(self) -> str:
        return int_to_ip(self.ipaddr4)


@dataclass
class PeeringDBSnapshot:
    """All records of one synthetic PeeringDB dump."""

    label: str
    ixes: List[IXRecord] = field(default_factory=list)
    netixlans: List[NetIXLan] = field(default_factory=list)

    def by_address(self) -> Dict[int, NetIXLan]:
        """Map LAN address -> netixlan record."""
        return {record.ipaddr4: record for record in self.netixlans}

    def members_of(self, ix_id: int) -> List[NetIXLan]:
        """All ports recorded at one exchange."""
        return [record for record in self.netixlans
                if record.ix_id == ix_id]

    # -- serialization (PeeringDB-style JSON) --------------------------------

    def to_json(self) -> str:
        """Serialize in the shape of PeeringDB API dumps."""
        return json.dumps({
            "label": self.label,
            "ix": {"data": [{"id": ix.ix_id, "name": ix.name,
                             "country": ix.country}
                            for ix in self.ixes]},
            "netixlan": {"data": [{"ix_id": r.ix_id, "asn": r.asn,
                                   "ipaddr4": r.ip}
                                  for r in self.netixlans]},
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PeeringDBSnapshot":
        """Parse :meth:`to_json` output."""
        raw = json.loads(text)
        snapshot = cls(label=raw.get("label", ""))
        for entry in raw.get("ix", {}).get("data", []):
            snapshot.ixes.append(IXRecord(ix_id=entry["id"],
                                          name=entry["name"],
                                          country=entry.get("country", "")))
        for entry in raw.get("netixlan", {}).get("data", []):
            snapshot.netixlans.append(NetIXLan(
                ix_id=entry["ix_id"], asn=entry["asn"],
                ipaddr4=ip_to_int(entry["ipaddr4"])))
        return snapshot
