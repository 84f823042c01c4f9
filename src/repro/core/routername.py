"""Hoiho's original capability: router names for alias resolution.

The paper's learner is a modification of the 2019 Hoiho [19], which
learns regexes extracting the *router name* portion of a hostname --
the substring shared by interfaces of the same router but unique across
routers in a suffix (``ae2.cr1.fra`` and ``xe0.cr1.fra`` name the same
``cr1.fra``).  This module implements that mode over the same suffix
datasets, trained with router identities from alias resolution, so the
repository carries the complete tool the paper extends.

Scoring follows the alias-resolution ATP logic the paper contrasts with
its own in section 3.1: a regex earns TPs for keeping a multi-interface
router's hostnames together under one extracted name, FPs for splitting
a router or merging different routers under one name.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.regex_model import Regex, escape_literal
from repro.psl import PublicSuffixList, default_psl
from repro.util.strings import split_segments


@dataclass(frozen=True)
class RouterItem:
    """One (hostname, router identity) training observation."""

    hostname: str
    router_id: str


class RouterDataset:
    """Router-name training items sharing one suffix."""

    def __init__(self, suffix: str, items: Iterable[RouterItem]) -> None:
        self.suffix = suffix.lower()
        seen = set()
        unique: List[RouterItem] = []
        for item in items:
            hostname = item.hostname.lower()
            key = (hostname, item.router_id)
            if key in seen:
                continue
            seen.add(key)
            unique.append(RouterItem(hostname, item.router_id))
        self.items = sorted(unique,
                            key=lambda it: (it.hostname, it.router_id))

    def __len__(self) -> int:
        return len(self.items)

    def local_part(self, item: RouterItem) -> str:
        tail = "." + self.suffix
        if item.hostname.endswith(tail):
            return item.hostname[:-len(tail)]
        return ""

    def multi_interface_routers(self) -> int:
        counts = Counter(item.router_id for item in self.items)
        return sum(1 for count in counts.values() if count >= 2)


@dataclass
class RouterNameScore:
    """Alias-flavoured score: cohesion within and separation across
    routers."""

    tp: int = 0       # hostnames of multi-interface routers kept together
    fp: int = 0       # hostnames split off or merged across routers
    fn: int = 0       # unmatched hostnames of multi-interface routers

    @property
    def atp(self) -> int:
        return self.tp - (self.fp + self.fn)


@dataclass
class RouterNameConvention:
    """A learned router-name convention for one suffix."""

    suffix: str
    regex: Regex
    score: RouterNameScore

    def name_of(self, hostname: str) -> Optional[str]:
        """The router-name portion of ``hostname``, if matched."""
        hit = self.regex.extract(hostname.lower())
        return hit[0] if hit is not None else None

    def aliases(self, hostnames: Iterable[str]) -> List[Set[str]]:
        """Group hostnames into inferred alias sets by extracted name."""
        groups: Dict[str, Set[str]] = defaultdict(set)
        for hostname in hostnames:
            name = self.name_of(hostname)
            if name is not None:
                groups[name].add(hostname)
        return [group for _, group in sorted(groups.items())
                if len(group) >= 2]


def _component_for(segment: str, delimiter: str) -> str:
    """The exclusion component covering a non-captured segment."""
    if not segment:
        return ""
    return "[^%s]+" % escape_literal(delimiter)


def candidate_patterns(dataset: RouterDataset, item: RouterItem,
                       ) -> List[str]:
    """Candidate patterns capturing each contiguous segment range.

    Unlike the single-capture ASN regexes, a router name usually spans
    several punctuation-delimited segments (``cr1.fra``), so candidates
    place the capture over every contiguous token range.
    """
    local = dataset.local_part(item)
    if not local:
        return []
    tokens = split_segments(local)
    n_segments = (len(tokens) + 1) // 2
    patterns: List[str] = []
    for first in range(n_segments):
        for last in range(first, n_segments):
            parts: List[str] = ["^"]
            tok_index = 0
            while tok_index < len(tokens):
                seg_index = tok_index // 2
                if tok_index % 2 == 1:
                    parts.append(escape_literal(tokens[tok_index]))
                elif first <= seg_index <= last:
                    if seg_index == first:
                        parts.append("(")
                    parts.append("[a-z\\d]+")
                    if seg_index == last:
                        parts.append(")")
                    else:
                        # Punctuation inside the capture stays literal;
                        # handled by the odd-token branch above, but it
                        # must land inside the group, so emit nothing
                        # special here.
                        pass
                else:
                    delimiter = tokens[tok_index + 1] \
                        if tok_index + 1 < len(tokens) else "."
                    parts.append(_component_for(tokens[tok_index],
                                                delimiter))
                tok_index += 1
            parts.append(escape_literal("." + dataset.suffix))
            parts.append("$")
            pattern = "".join(parts)
            if "(" in pattern:
                patterns.append(pattern)
    return patterns


def evaluate_router_regex(regex: Regex,
                          dataset: RouterDataset) -> RouterNameScore:
    """Score a router-name regex on cohesion and separation."""
    router_sizes = Counter(item.router_id for item in dataset.items)
    extractions: Dict[str, Optional[str]] = {}
    by_router: Dict[str, List[Optional[str]]] = defaultdict(list)
    name_owners: Dict[str, Set[str]] = defaultdict(set)
    for item in dataset.items:
        hit = regex.extract(item.hostname)
        name = hit[0] if hit is not None else None
        by_router[item.router_id].append(name)
        if name is not None:
            name_owners[name].add(item.router_id)

    score = RouterNameScore()
    for router_id, names in by_router.items():
        multi = router_sizes[router_id] >= 2
        matched = [name for name in names if name is not None]
        if not multi:
            # Single-interface routers cannot evidence cohesion, but a
            # name collision with another router is a false merge.
            for name in matched:
                if len(name_owners[name]) > 1:
                    score.fp += 1
            continue
        if not matched:
            score.fn += len(names)
            continue
        distinct = set(matched)
        if len(distinct) == 1 and len(matched) == len(names):
            name = matched[0]
            if len(name_owners[name]) > 1:
                score.fp += len(names)     # merged with another router
            else:
                score.tp += len(names)
        else:
            score.fp += len(names)         # split router (or partial)
    return score


@dataclass
class RouterNameConfig:
    """Learner gates."""

    min_hostnames: int = 4
    min_multi_routers: int = 2
    max_candidates: int = 300
    generation_sample: int = 40


def learn_router_suffix(dataset: RouterDataset,
                        config: Optional[RouterNameConfig] = None,
                        ) -> Optional[RouterNameConvention]:
    """Learn a router-name convention for one suffix, or None."""
    config = config or RouterNameConfig()
    if len(dataset) < config.min_hostnames:
        return None
    if dataset.multi_interface_routers() < config.min_multi_routers:
        return None
    seen: Set[str] = set()
    candidates: List[Regex] = []
    visited = 0
    for item in dataset.items:
        if visited >= config.generation_sample:
            break
        patterns = candidate_patterns(dataset, item)
        if patterns:
            visited += 1
        for pattern in patterns:
            if pattern in seen:
                continue
            seen.add(pattern)
            candidates.append(Regex.raw(pattern))
            if len(candidates) >= config.max_candidates:
                break
        if len(candidates) >= config.max_candidates:
            break

    best: Optional[Tuple[RouterNameScore, Regex]] = None
    for regex in candidates:
        score = evaluate_router_regex(regex, dataset)
        if score.tp == 0:
            continue
        key = (score.atp, score.tp, regex.pattern)
        if best is None or key > (best[0].atp, best[0].tp,
                                  best[1].pattern):
            best = (score, regex)
    if best is None or best[0].atp <= 0:
        return None
    return RouterNameConvention(suffix=dataset.suffix, regex=best[1],
                                score=best[0])


def group_router_items(items: Iterable[RouterItem],
                       psl: Optional[PublicSuffixList] = None,
                       ) -> Dict[str, RouterDataset]:
    """Partition router-name items into per-suffix datasets."""
    psl = psl or default_psl()
    buckets: Dict[str, List[RouterItem]] = defaultdict(list)
    for item in items:
        suffix = psl.registered_domain(item.hostname)
        if suffix is None:
            continue
        buckets[suffix].append(item)
    return {suffix: RouterDataset(suffix, bucket)
            for suffix, bucket in buckets.items()}


def learn_router_names(items: Iterable[RouterItem],
                       config: Optional[RouterNameConfig] = None,
                       ) -> Dict[str, RouterNameConvention]:
    """Learn router-name conventions over a whole training set."""
    conventions: Dict[str, RouterNameConvention] = {}
    datasets = group_router_items(items)
    for suffix in sorted(datasets):
        convention = learn_router_suffix(datasets[suffix], config)
        if convention is not None:
            conventions[suffix] = convention
    return conventions
