"""Training data types for the Hoiho-ASN learner.

A training item pairs a hostname with the ASN some oracle believes
operates the router behind it -- inferred by RouterToAsAssignment or
bdrmapIT for ITDK snapshots, or recorded by an operator in PeeringDB.
Items are grouped per registered-domain suffix; the learner works on one
:class:`SuffixDataset` at a time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.congruence import apparent_runs
from repro.psl import PublicSuffixList, default_psl
from repro.util.ipaddr import embedded_ip_spans
from repro.util.strings import DigitRun, split_segments


@dataclass(frozen=True)
class TrainingItem:
    """One (hostname, training ASN) observation.

    Attributes:
        hostname: the full PTR name, lower-cased.
        train_asn: the ASN the training oracle assigned to the router.
        address: the interface address (dotted quad), when known; used by
            the embedded-IP false-positive rule.
    """

    hostname: str
    train_asn: int
    address: Optional[str] = None


class SuffixDataset:
    """All training items sharing one registered-domain suffix.

    Items are deduplicated and sorted.  Per-item features -- the local
    part (hostname minus suffix), embedded-IP spans, apparent ASNs and
    token structure -- are derived on demand; the embedded-IP spans and
    apparent ASNs come from process-wide memos, so a hostname held by
    many datasets is featurised once.

    >>> ds = SuffixDataset("example.com",
    ...                    [TrainingItem("as64500.lon1.example.com", 64500)])
    >>> ds.local_part(ds.items[0])
    'as64500.lon1'
    """

    def __init__(self, suffix: str, items: Iterable[TrainingItem]) -> None:
        self.suffix = suffix.lower()
        seen = set()
        unique: List[TrainingItem] = []
        for item in items:
            hostname = item.hostname.lower()
            key = (hostname, item.train_asn)
            if key in seen:
                continue
            seen.add(key)
            if hostname != item.hostname:
                item = TrainingItem(hostname, item.train_asn, item.address)
            unique.append(item)
        # Sorted for deterministic candidate generation order.
        self.items: List[TrainingItem] = sorted(
            unique, key=lambda it: (it.hostname, it.train_asn))

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def distinct_train_asns(self) -> int:
        """Number of distinct training ASNs in the dataset."""
        return len({item.train_asn for item in self.items})

    def local_part(self, item: TrainingItem) -> str:
        """The hostname with the dot-suffix removed (may be empty)."""
        tail = "." + self.suffix
        if item.hostname == self.suffix:
            return ""
        if item.hostname.endswith(tail):
            return item.hostname[:-len(tail)]
        raise ValueError("%r does not end with suffix %r"
                         % (item.hostname, self.suffix))

    def ip_spans(self, index: int) -> Tuple[Tuple[int, int], ...]:
        """Embedded-IP character spans for item ``index`` (memoised)."""
        item = self.items[index]
        return embedded_ip_spans(item.hostname, item.address)

    def apparent_runs(self, index: int) -> Tuple[DigitRun, ...]:
        """Apparent-ASN digit runs for item ``index`` (memoised)."""
        item = self.items[index]
        return apparent_runs(item.hostname, item.train_asn, item.address)

    def tokens(self, item: TrainingItem) -> List[str]:
        """Alternating segment/punctuation tokens of the local part."""
        return split_segments(self.local_part(item))


def group_by_suffix(items: Iterable[TrainingItem],
                    psl: Optional[PublicSuffixList] = None,
                    domains: Optional[Dict[str, Optional[str]]] = None,
                    ) -> Dict[str, SuffixDataset]:
    """Partition training items into per-suffix datasets.

    Items whose hostname has no registerable suffix (bare TLDs, empty
    names) are dropped, mirroring Hoiho's preprocessing.  ``domains``
    memoises ``{hostname: registered domain}`` (``None`` for a dropped
    hostname) for callers grouping many sets under one ``psl``; each
    hostname missing from it is looked up once and added.
    """
    psl = psl or default_psl()
    if domains is None:
        domains = {}
    buckets: Dict[str, List[TrainingItem]] = defaultdict(list)
    for item in items:
        hostname = item.hostname
        if hostname in domains:
            suffix = domains[hostname]
        else:
            suffix = domains[hostname] = psl.registered_domain(hostname)
        if suffix is None:
            continue
        buckets[suffix].append(item)
    return {suffix: SuffixDataset(suffix, bucket)
            for suffix, bucket in buckets.items()}
