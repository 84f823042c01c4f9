"""A BGP-derived routing information base and IP-to-AS mapping.

The router-ownership heuristics need the *origin AS* of every interface
address (the AS that announces the longest matching prefix in BGP), plus
knowledge of IXP peering LANs, whose addresses belong to the exchange
rather than any member and must be treated specially (bdrmapIT maps them
through to the following hop).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.util.ipaddr import IPv4Prefix, int_to_ip
from repro.util.radix import PrefixTable

IXP_ASN = -1
"""Sentinel origin for addresses inside an IXP peering LAN."""

UNKNOWN_ASN = 0
"""Sentinel origin for addresses covered by no announcement."""


class RouteTable:
    """Longest-prefix-match IP-to-AS built from prefix announcements.

    >>> table = RouteTable()
    >>> table.announce(IPv4Prefix.parse("10.0.0.0/8"), 3356)
    >>> table.announce(IPv4Prefix.parse("10.1.0.0/16"), 64500)
    >>> from repro.util.ipaddr import ip_to_int
    >>> table.origin(ip_to_int("10.1.9.9"))
    64500
    >>> table.origin(ip_to_int("10.9.9.9"))
    3356
    >>> table.origin(ip_to_int("192.0.2.1"))
    0
    """

    def __init__(self) -> None:
        self._origins: PrefixTable[int] = PrefixTable()
        self._ixp_prefixes: List[IPv4Prefix] = []
        self._by_origin: Dict[int, List[IPv4Prefix]] = {}
        self._ixp_org: PrefixTable[int] = PrefixTable()

    def announce(self, prefix: IPv4Prefix, origin: int) -> None:
        """Record that ``origin`` announces ``prefix`` in BGP."""
        self._origins.insert(prefix, origin)
        self._by_origin.setdefault(origin, []).append(prefix)

    def add_ixp_prefix(self, prefix: IPv4Prefix,
                       org_asn: Optional[int] = None) -> None:
        """Mark ``prefix`` as an IXP peering LAN (origin ``IXP_ASN``).

        ``org_asn`` optionally records the exchange operator's ASN (the
        AS the LAN is registered/announced under).  IXP-aware methods
        ignore it; naive election heuristics credit it for LAN
        addresses, reproducing the pre-bdrmap misattribution of member
        ports.
        """
        self._origins.insert(prefix, IXP_ASN)
        self._ixp_prefixes.append(prefix)
        if org_asn is not None:
            self._ixp_org.insert(prefix, org_asn)

    def ixp_org(self, address: int) -> Optional[int]:
        """Exchange operator ASN for an IXP LAN ``address``, if known."""
        return self._ixp_org.lookup(address)

    def origin(self, address: int) -> int:
        """Origin AS of ``address`` (``IXP_ASN``/``UNKNOWN_ASN`` sentinels)."""
        found = self._origins.lookup(address)
        return UNKNOWN_ASN if found is None else found

    def origin_prefix(self, address: int) -> Optional[Tuple[IPv4Prefix, int]]:
        """Longest matching (prefix, origin) for ``address``, if any."""
        return self._origins.lookup_prefix(address)

    def is_ixp(self, address: int) -> bool:
        """True when ``address`` lies inside a known IXP peering LAN."""
        return self._origins.lookup(address) == IXP_ASN

    def prefixes_of(self, origin: int) -> List[IPv4Prefix]:
        """All prefixes announced by ``origin`` (insertion order)."""
        return list(self._by_origin.get(origin, ()))

    def ixp_prefixes(self) -> List[IPv4Prefix]:
        """All registered IXP peering LAN prefixes."""
        return list(self._ixp_prefixes)

    def __len__(self) -> int:
        return len(self._origins)

    def items(self) -> Iterator[Tuple[IPv4Prefix, int]]:
        """Yield every (prefix, origin) announcement."""
        return self._origins.items()

    # -- serialization -----------------------------------------------------

    def to_lines(self) -> Iterator[str]:
        """Serialize as ``prefix|origin[|ixp_org]`` lines (sorted)."""
        for prefix, origin in sorted(self.items(),
                                     key=lambda item: (item[0].network,
                                                       item[0].length)):
            if origin == IXP_ASN:
                org = self._ixp_org.exact(prefix)
                if org is not None:
                    yield "%s|%d|%d" % (prefix, origin, org)
                    continue
            yield "%s|%d" % (prefix, origin)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "RouteTable":
        """Parse lines produced by :meth:`to_lines`."""
        table = cls()
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("|")
            prefix = IPv4Prefix.parse(fields[0])
            origin = int(fields[1])
            if origin == IXP_ASN:
                org = int(fields[2]) if len(fields) > 2 else None
                table.add_ixp_prefix(prefix, org_asn=org)
            else:
                table.announce(prefix, origin)
        return table

    def describe(self, address: int) -> str:
        """Debugging helper: ``a.b.c.d -> prefix (ASorigin)``."""
        hit = self.origin_prefix(address)
        if hit is None:
            return "%s -> (unrouted)" % int_to_ip(address)
        prefix, origin = hit
        label = "IXP" if origin == IXP_ASN else "AS%d" % origin
        return "%s -> %s (%s)" % (int_to_ip(address), prefix, label)
