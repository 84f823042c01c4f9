"""Longest-prefix match over IPv4 prefixes: one hash table per length.

This is the substrate for the BGP-derived prefix-to-AS mapping used by
RouterToAsAssignment and bdrmapIT (section 2.1 of the paper).  The table
stores one value per prefix; lookups return the value attached to the
longest prefix covering an address.

It is the linear form of Waldvogel et al., *Scalable High Speed IP
Routing Lookups* (SIGCOMM 1997): a ``dict`` of network -> value per
prefix length, probed longest length first, so a lookup costs one mask
and one hash probe per length present rather than one step per bit.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar

from repro.util.ipaddr import IPv4Prefix

V = TypeVar("V")


class PrefixTable(Generic[V]):
    """Maps IPv4 prefixes to values, answering longest-prefix-match queries.

    >>> table = PrefixTable()
    >>> table.insert(IPv4Prefix.parse("10.0.0.0/8"), "coarse")
    >>> table.insert(IPv4Prefix.parse("10.1.0.0/16"), "fine")
    >>> from repro.util.ipaddr import ip_to_int
    >>> table.lookup(ip_to_int("10.1.2.3"))
    'fine'
    >>> table.lookup(ip_to_int("10.2.2.3"))
    'coarse'
    >>> table.lookup(ip_to_int("11.0.0.1")) is None
    True
    """

    def __init__(self) -> None:
        self._by_length: Dict[int, Dict[int, V]] = {}
        # (mask, length, networks) for every length present, longest
        # first: the probe order of a lookup.
        self._probes: Tuple[Tuple[int, int, Dict[int, V]], ...] = ()

    def __len__(self) -> int:
        return sum(len(networks) for networks in self._by_length.values())

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Attach ``value`` to ``prefix``, replacing any existing value."""
        networks = self._by_length.get(prefix.length)
        if networks is None:
            networks = self._by_length[prefix.length] = {}
            self._probes = tuple(
                ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF, length,
                 self._by_length[length])
                for length in sorted(self._by_length, reverse=True))
        networks[prefix.network] = value

    def lookup(self, address: int) -> Optional[V]:
        """Return the value of the longest prefix covering ``address``."""
        for mask, _, networks in self._probes:
            network = address & mask
            if network in networks:
                return networks[network]
        return None

    def lookup_prefix(self, address: int) -> Optional[Tuple[IPv4Prefix, V]]:
        """Like :meth:`lookup` but also return the matching prefix."""
        for mask, length, networks in self._probes:
            network = address & mask
            if network in networks:
                return IPv4Prefix(network, length), networks[network]
        return None

    def exact(self, prefix: IPv4Prefix) -> Optional[V]:
        """Return the value stored exactly at ``prefix``, if any."""
        return self._by_length.get(prefix.length, {}).get(prefix.network)

    def items(self) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Yield every (prefix, value) pair, by network then length."""
        keys = sorted((network, length)
                      for length, networks in self._by_length.items()
                      for network in networks)
        for network, length in keys:
            yield IPv4Prefix(network, length), self._by_length[length][network]

