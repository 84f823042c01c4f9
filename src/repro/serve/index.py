"""Suffix-trie dispatch from hostnames to pre-compiled extraction plans.

The learner's own :meth:`HoihoResult.extract` resolves every hostname
through the public-suffix list -- a linear scan over all PSL rules --
and then walks the convention's :class:`Regex` objects, lowercasing the
hostname once per regex.  Fine for a report, hopeless for bulk serving.

This module front-loads all of that:

* each :class:`LearnedConvention` becomes an :class:`AnnotationPlan`:
  its patterns compiled once, in evaluation order, first match wins;
* all plans hang off a **reversed-label trie**
  (:class:`DispatchIndex`), so mapping a hostname to its owning plan is
  O(labels) dict hops instead of a PSL rule scan.

Dispatch semantics: the *longest* convention suffix that suffix-matches
the hostname wins.  For learner-produced results this is provably the
same answer the PSL path gives: every convention key is a registered
domain under one fixed PSL, registered domains form an antichain under
the suffix relation (if ``b.example.com`` were registerable,
``example.com`` would be a public suffix and hence not registerable),
so at most one key can suffix-match any hostname -- exactly the
hostname's registered domain.  PSL wildcard and exception rules are
therefore honoured for free: a convention learned for ``www.ck``
(registerable only because of the ``!www.ck`` exception to ``*.ck``)
occupies the ``ck -> www`` trie path, and hostnames under other
``*.ck`` domains walk past it without matching.

Hostnames are normalised (lower-cased, surrounding dots stripped)
before dispatch, so trailing-dot FQDNs and uppercase labels annotate
identically to their canonical forms.

**Fused matchers** (the dispatch hot path): a plan's ordered pattern
list is additionally compiled -- when safe -- into a *single*
alternation regex, ``(p1)|(p2)|...``, so one ``re.match`` call replaces
the sequential first-match loop.  Python's regex alternation is
leftmost-first at a fixed position, and ``re.match`` anchors every
alternative at position 0, so the fused program tries exactly the same
candidates in exactly the same order as the loop -- first match wins
either way.  Each alternative is wrapped in its own capture group;
after a match, the branch that fired is recovered from
``Match.lastindex`` (only one branch's groups can participate) and the
branch's original group 1 -- the ASN capture -- is read at its shifted
offset.  Fusion falls back to the proven sequential loop whenever
equivalence cannot be guaranteed syntactically: numbered or named
backreferences and conditionals (group renumbering would re-target
them), global inline flags like ``(?i)`` (they would leak across
alternatives), patterns without a capture group, duplicate group
names, or a fused program that would exceed
:data:`MAX_FUSED_GROUPS`.  ``AnnotationPlan.extract`` is
result-identical either way (property-tested in
``tests/props/test_hotpath_props.py``).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Pattern, Tuple

from repro.core.select import HoihoResult, LearnedConvention, NCClass

#: Trie-node key holding the node's plan (labels are plain strings, so
#: any non-string sentinel cannot collide).
_PLAN_KEY = object()

#: Most capture groups a fused program may use.  Stays under the
#: classic ``re`` backreference limit (100) with margin; plans whose
#: alternation would exceed it keep the sequential loop.
MAX_FUSED_GROUPS = 96

#: Global inline flags -- ``(?i)``, ``(?im)``, ... -- apply to the
#: whole expression, so fusing them into an alternation would leak one
#: pattern's flags onto its siblings.  Scoped groups like ``(?i:...)``
#: are local and stay fusable.  The scan is conservative (a literal
#: ``(?i)`` inside a character class also triggers fallback).
_GLOBAL_FLAGS = re.compile(r"\(\?[aiLmsux]+\)")

#: Backreferences and conditionals name groups by number or name;
#: fusion renumbers groups, so any of these forces the sequential
#: fallback.  ``\\[1-9]`` is conservative: an escaped backslash before
#: a digit (``\\1`` matching literal ``\1``) also triggers fallback.
_BACKREF = re.compile(r"\\[1-9]|\(\?P=|\(\?\(")


class _SequentialMatcher:
    """The proven first-match loop over individually compiled patterns."""

    __slots__ = ("patterns",)

    fused = False

    def __init__(self, patterns: Tuple[Pattern[str], ...]) -> None:
        self.patterns = patterns

    def extract(self, hostname: str) -> Optional[int]:
        for pattern in self.patterns:
            match = pattern.match(hostname)
            if match is not None:
                return int(match.group(1))
        return None


class _FusedMatcher:
    """One alternation regex replacing the sequential first-match loop.

    ``bases[i]`` is the capture group wrapping alternative ``i``; the
    alternative's ASN group (its original group 1) sits at
    ``bases[i] + 1``.  Exactly one branch participates in any match, so
    ``Match.lastindex`` -- the highest-numbered group that matched --
    always falls inside the winning branch's group range, and a bisect
    over ``bases`` recovers the branch without re-testing groups.
    """

    __slots__ = ("regex", "bases")

    fused = True

    def __init__(self, regex: Pattern[str], bases: Tuple[int, ...]) -> None:
        self.regex = regex
        self.bases = bases

    def extract(self, hostname: str) -> Optional[int]:
        match = self.regex.match(hostname)
        if match is None:
            return None
        bases = self.bases
        base = bases[bisect_right(bases, match.lastindex) - 1]
        return int(match.group(base + 1))


def fuse_patterns(patterns: Tuple[str, ...],
                  compiled: Tuple[Pattern[str], ...],
                  ) -> Optional[_FusedMatcher]:
    """The fused program for ``patterns``, or ``None`` when fusion
    cannot be proven equivalent to the sequential loop (see the module
    docstring for the exact fallback conditions)."""
    if len(patterns) < 2:
        return None
    for pattern, regex in zip(patterns, compiled):
        if regex.groups == 0:
            # No ASN capture: the sequential loop would raise on a
            # match; keep that (surfaced) behaviour rather than guess.
            return None
        if _GLOBAL_FLAGS.search(pattern) or _BACKREF.search(pattern):
            return None
    total = sum(regex.groups for regex in compiled) + len(compiled)
    if total > MAX_FUSED_GROUPS:
        return None
    bases: List[int] = []
    parts: List[str] = []
    offset = 0
    for pattern, regex in zip(patterns, compiled):
        bases.append(offset + 1)
        parts.append("(%s)" % pattern)
        offset += regex.groups + 1
    try:
        fused = re.compile("|".join(parts))
    except re.error:
        # Duplicate named groups across alternatives, engine limits --
        # anything the syntactic screen missed lands here.
        return None
    if fused.groups != total:
        return None
    return _FusedMatcher(fused, tuple(bases))


def normalize_hostname(hostname: object) -> Optional[str]:
    """Canonical lookup form of ``hostname``, or ``None`` if malformed.

    Lower-cases, trims whitespace, and strips surrounding dots (so
    trailing-dot FQDNs resolve like their canonical form).  Whitespace
    and dots are stripped to a fixpoint -- ``"foo.com ."`` must not
    keep its inner space just because the dot was outside it -- so the
    memo key for any decorated form matches its canonical one.
    Anything that is not a non-empty string -- or is empty once
    stripped -- is malformed.
    """
    if not isinstance(hostname, str):
        return None
    hostname = hostname.lower()
    while True:
        stripped = hostname.strip().strip(".")
        if stripped == hostname:
            return hostname or None
        hostname = stripped


class AnnotationPlan:
    """One suffix's conventions, compiled into a first-match program.

    The pattern order mirrors :meth:`LearnedConvention.extract`: the
    first matching regex supplies the extraction.  Compilation is lazy
    (:attr:`compiled` / :attr:`matcher`) so building an index over
    thousands of suffixes stays cheap; :meth:`warm` forces it.

    Lazy compilation is **thread-safe by idempotence**: the compiled
    artifacts are built completely in a local, then published with a
    single attribute assignment (atomic under the GIL).  Two threads
    racing first access may both compile, but each publishes a complete,
    equivalent program and every reader sees either ``None`` or a fully
    built one -- never a partial.  Servers should still call
    :meth:`warm` (or :meth:`DispatchIndex.warm`) before accepting
    traffic so no request pays the compile.
    """

    __slots__ = ("suffix", "patterns", "nc_class", "fuse", "_compiled",
                 "_matcher")

    def __init__(self, suffix: str, patterns: Iterable[str],
                 nc_class: NCClass = NCClass.GOOD,
                 fuse: bool = True) -> None:
        self.suffix = suffix
        self.patterns: Tuple[str, ...] = tuple(patterns)
        self.nc_class = nc_class
        self.fuse = fuse
        self._compiled: Optional[Tuple[Pattern[str], ...]] = None
        self._matcher = None

    @classmethod
    def from_convention(cls, convention: LearnedConvention,
                        fuse: bool = True) -> "AnnotationPlan":
        """The plan equivalent of a learned convention."""
        return cls(convention.suffix, convention.patterns(),
                   convention.nc_class, fuse=fuse)

    @property
    def usable(self) -> bool:
        """Usable = good or promising (section 4)."""
        return self.nc_class.usable

    @property
    def compiled(self) -> Tuple[Pattern[str], ...]:
        """The individually compiled patterns, compiling on first
        access (complete-then-publish, so concurrent first calls are
        safe)."""
        compiled = self._compiled
        if compiled is None:
            compiled = tuple(re.compile(p) for p in self.patterns)
            self._compiled = compiled
        return compiled

    @property
    def matcher(self):
        """The extraction program: fused when provably equivalent,
        else the sequential loop (see the module docstring)."""
        matcher = self._matcher
        if matcher is None:
            compiled = self.compiled
            matcher = (fuse_patterns(self.patterns, compiled)
                       if self.fuse else None) \
                or _SequentialMatcher(compiled)
            self._matcher = matcher
        return matcher

    @property
    def fused(self) -> bool:
        """Whether extraction runs the fused program (compiles it)."""
        return self.matcher.fused

    def warm(self) -> None:
        """Force pattern + matcher compilation now."""
        self.matcher

    def extract(self, hostname: str) -> Optional[int]:
        """Extract an ASN from an already-normalised hostname."""
        matcher = self._matcher
        if matcher is None:
            matcher = self.matcher
        return matcher.extract(hostname)

    def __repr__(self) -> str:
        return "AnnotationPlan(%s, %d pattern%s)" % (
            self.suffix, len(self.patterns),
            "" if len(self.patterns) == 1 else "s")


class DispatchIndex:
    """Reversed-label suffix trie over :class:`AnnotationPlan` objects.

    >>> from repro.core.evaluate import NCScore
    >>> from repro.core.regex_model import Regex
    >>> conv = LearnedConvention(
    ...     "example.com", (Regex.raw(r"^as(\\d+)\\.\\w+\\.example\\.com$"),),
    ...     NCScore(tp=4), NCClass.GOOD)
    >>> index = DispatchIndex([AnnotationPlan.from_convention(conv)])
    >>> index.lookup("as3356.lon.example.com").suffix
    'example.com'
    >>> index.annotate("AS3356.lon.Example.COM.")
    3356
    >>> index.lookup("as3356.lon.example.net") is None
    True
    """

    def __init__(self, plans: Iterable[AnnotationPlan] = ()) -> None:
        self._root: Dict[object, object] = {}
        self._plans: Dict[str, AnnotationPlan] = {}
        for plan in plans:
            self.add(plan)

    @classmethod
    def from_result(cls, result: HoihoResult,
                    usable_only: bool = False,
                    fuse: bool = True) -> "DispatchIndex":
        """Index every convention of ``result`` (optionally only the
        usable ones).  ``fuse=False`` pins every plan to the sequential
        matcher -- the reference path the fused program is property-
        tested against."""
        return cls(AnnotationPlan.from_convention(convention, fuse=fuse)
                   for convention in result.conventions.values()
                   if not usable_only or convention.usable)

    def add(self, plan: AnnotationPlan) -> None:
        """Insert ``plan``, replacing any existing plan for its suffix."""
        suffix = normalize_hostname(plan.suffix)
        if suffix is None:
            raise ValueError("unindexable suffix %r" % (plan.suffix,))
        node = self._root
        for label in reversed(suffix.split(".")):
            node = node.setdefault(label, {})  # type: ignore[assignment]
        node[_PLAN_KEY] = plan
        self._plans[suffix] = plan

    def __len__(self) -> int:
        return len(self._plans)

    def suffixes(self) -> List[str]:
        """Indexed suffixes, sorted."""
        return sorted(self._plans)

    def plan_for(self, suffix: str) -> Optional[AnnotationPlan]:
        """The plan stored for exactly ``suffix``, if any."""
        normalized = normalize_hostname(suffix)
        return self._plans.get(normalized) if normalized else None

    def warm(self) -> int:
        """Compile every plan's patterns; returns the plan count."""
        for plan in self._plans.values():
            plan.warm()
        return len(self._plans)

    def fused_plans(self) -> int:
        """How many plans run the fused program (compiles them)."""
        return sum(1 for plan in self._plans.values() if plan.fused)

    def lookup(self, hostname: str) -> Optional[AnnotationPlan]:
        """The owning plan of ``hostname`` (normalising first), or None."""
        normalized = normalize_hostname(hostname)
        if normalized is None:
            return None
        return self.lookup_normalized(normalized)

    def lookup_normalized(self, hostname: str) -> Optional[AnnotationPlan]:
        """Deepest plan whose suffix matches an already-normalised
        hostname: O(labels) dict hops."""
        node = self._root
        best: Optional[AnnotationPlan] = None
        for label in reversed(hostname.split(".")):
            next_node = node.get(label)
            if next_node is None:
                break
            node = next_node  # type: ignore[assignment]
            plan = node.get(_PLAN_KEY)
            if plan is not None:
                best = plan  # type: ignore[assignment]
        return best

    def annotate(self, hostname: str) -> Optional[int]:
        """Metrics-free fast path: normalise, dispatch, extract."""
        normalized = normalize_hostname(hostname)
        if normalized is None:
            return None
        plan = self.lookup_normalized(normalized)
        if plan is None:
            return None
        return plan.extract(normalized)

    def __repr__(self) -> str:
        return "DispatchIndex(%d suffixes)" % len(self._plans)
