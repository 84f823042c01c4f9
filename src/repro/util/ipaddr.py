"""IPv4 helpers and detection of IP addresses embedded in hostnames.

The synthetic Internet in :mod:`repro.topology` allocates IPv4 prefixes and
point-to-point subnets; this module provides the arithmetic.  It also
implements the paper's figure-3b rule: a number extracted from a hostname
is a false positive when it is part of an IP address embedded in the
hostname (for example ``209-201-58-109.dia.stat.centurylink.net``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.util.strings import FEATURE_MEMO_SIZE, digit_runs


def ip_to_int(text: str) -> int:
    """Parse dotted-quad ``text`` into a 32-bit integer.

    Raises ``ValueError`` on malformed input.

    >>> ip_to_int("10.0.0.1")
    167772161
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError("not a dotted quad: %r" % (text,))
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError("bad octet %r in %r" % (part, text))
        octet = int(part)
        if octet > 255:
            raise ValueError("octet out of range in %r" % (text,))
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Render a 32-bit integer as a dotted quad.

    >>> int_to_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError("address out of range: %r" % (value,))
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class IPv4Prefix:
    """An IPv4 prefix (network address plus length), e.g. ``10.0.0.0/8``."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError("bad prefix length %d" % self.length)
        if self.network & ~self.mask & 0xFFFFFFFF:
            raise ValueError("host bits set below /%d in %s"
                             % (self.length, int_to_ip(self.network)))

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        """Parse ``a.b.c.d/len`` notation."""
        addr, _, length = text.partition("/")
        if not length:
            raise ValueError("missing prefix length in %r" % (text,))
        return cls(ip_to_int(addr), int(length))

    @property
    def mask(self) -> int:
        """The netmask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside the prefix."""
        return (address & self.mask) == self.network

    def contains_prefix(self, other: "IPv4Prefix") -> bool:
        """True when ``other`` is equal to or more specific than this."""
        return other.length >= self.length and self.contains(other.network)

    def subnets(self, new_length: int) -> Iterator["IPv4Prefix"]:
        """Yield the subdivisions of this prefix at ``new_length``."""
        if new_length < self.length:
            raise ValueError("cannot widen %s to /%d" % (self, new_length))
        step = 1 << (32 - new_length)
        for network in range(self.network, self.network + self.size, step):
            yield IPv4Prefix(network, new_length)

    def addresses(self) -> Iterator[int]:
        """Yield every address inside the prefix (including network/bcast)."""
        return iter(range(self.network, self.network + self.size))

    def host(self, index: int) -> int:
        """Return the ``index``-th address inside the prefix."""
        if not 0 <= index < self.size:
            raise ValueError("host index %d outside %s" % (index, self))
        return self.network + index

    def __str__(self) -> str:
        return "%s/%d" % (int_to_ip(self.network), self.length)


def _address_octets(address: Optional[str]) -> Optional[List[str]]:
    """The four octets of ``address``, or None when it is not four
    decimal octets each at most 255 -- such an address is unknown."""
    if address is None:
        return None
    octets = address.split(".")
    if len(octets) != 4 or not all(o.isdecimal() and int(o) <= 255
                                   for o in octets):
        return None
    return octets


@functools.lru_cache(maxsize=FEATURE_MEMO_SIZE)
def embedded_ip_spans(hostname: str, address: Optional[str] = None,
                      ) -> Tuple[Tuple[int, int], ...]:
    """Locate IP-address-like substrings embedded in ``hostname``.

    Returns character ranges ``(start, end)`` covering the digits of each
    embedded address.  Two families are detected:

    * four consecutive digit runs separated by a consistent single
      punctuation character, each a valid octet, e.g. ``50-236-216-122`` or
      ``209.201.58.109`` -- the generic dotted/dashed quad;
    * when the interface ``address`` is known, its four octets as
      consecutive digit runs, in order or reversed PTR-style, each pair
      separated by one punctuation character, and any zero-padded
      concatenation such as ``050236216122``.  An address that is not
      four decimal octets, each at most 255, is unknown.

    The caller treats any extracted number overlapping one of these spans
    as a false positive (figure 3b of the paper).  Results are memoised
    process-wide and shared, hence tuples.

    >>> embedded_ip_spans("209-201-58-109.dia.example.net")
    ((0, 14),)
    >>> embedded_ip_spans("p24115.mel.example.com")
    ()
    """
    spans: List[Tuple[int, int]] = []
    known: Tuple[List[int], ...] = ()
    octets = _address_octets(address)
    if octets is not None:
        values = [int(o) for o in octets]
        known = (values, values[::-1])
        padded = "".join(o.zfill(3) for o in octets)
        start = hostname.find(padded)
        while start != -1:
            spans.append((start, start + len(padded)))
            start = hostname.find(padded, start + 1)

    runs = digit_runs(hostname)
    for i in range(len(runs) - 3):
        window = runs[i:i + 4]
        seps = {hostname[a.end:b.start] for a, b in zip(window, window[1:])}
        if any(len(sep) != 1 or sep.isalnum() for sep in seps):
            continue
        if ((len(seps) == 1
             and all(len(r) <= 3 and r.value <= 255 for r in window))
                or [r.value for r in window] in known):
            spans.append((window[0].start, window[3].end))

    return _merge_spans(spans)


def _merge_spans(spans: List[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Merge overlapping/adjacent spans and sort them."""
    if not spans:
        return ()
    spans = sorted(spans)
    merged = [spans[0]]
    for start, end in spans[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return tuple(merged)
