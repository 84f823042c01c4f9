"""Per-dataset match-vector evaluation cache (the learner's hot path).

The four learning phases evaluate the same regexes against the same
suffix dataset over and over: phase 1 scores every candidate, phase 2
scores merges of those candidates, phase 3 re-scores specialisations,
and phase 4 builds regex *sets* by repeatedly scoring supersets of
regexes it has already measured.  Scored directly, every one of those
evaluations would walk the whole dataset calling ``re.match`` and
re-deriving the apparent-ASN baseline for unmatched hostnames.

A :class:`MatchCache` computes, once per regex, a per-item *match
vector* -- did the regex match, what text/span it extracted, and the
TP/FP/FN classification of that extraction -- after which every further
evaluation is pure array composition:

* scoring a single regex is a dictionary lookup;
* scoring an ordered regex set is a first-match merge of cached vectors
  (:meth:`MatchCache.score_nc`), with no regex engine involvement;
* growing a set one regex at a time (phase 4) is incremental via
  :class:`ComposedNC`, turning set construction from
  O(sets x regexes x items x match) into O(sets x items) composition.

The per-item FN baseline (does the hostname contain an apparent ASN?)
is computed once per dataset instead of once per unmatched item per
evaluation.  :class:`CacheStats` counts the work performed and avoided;
``learn.suffix`` spans carry the counts, and
``tests/core/test_matchcache.py`` pins them on one suffix.

It is the only scorer: every phase and
:func:`~repro.core.evaluate.evaluate_nc` score through it.  The direct
first-match loop it replaces lives on in ``tests/reference_scoring.py``
as the oracle its scores are held to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.congruence import Outcome, classify_extraction
from repro.core.evaluate import NCScore
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset

#: A single regex-vs-item encounter: (extracted text, capture span),
#: or None when the regex did not match.
Hit = Optional[Tuple[str, Tuple[int, int]]]


@dataclass
class CacheStats:
    """Work counters for one :class:`MatchCache`.

    ``match_calls`` counts actual ``re.match`` invocations (one per item
    per vector built); ``vector_hits`` counts evaluations served from
    cached state (a memoised score or an already-built vector);
    ``compositions`` counts regex-set scores assembled from vectors
    without touching the regex engine.
    """

    vectors_built: int = 0
    vector_hits: int = 0
    match_calls: int = 0
    compositions: int = 0

    @property
    def lookups(self) -> int:
        """Total vector requests (built + served from cache)."""
        return self.vectors_built + self.vector_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of vector requests served without matching."""
        return self.vector_hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"vectors_built": self.vectors_built,
                "vector_hits": self.vector_hits,
                "match_calls": self.match_calls,
                "compositions": self.compositions,
                "hit_rate": self.hit_rate}


class MatchVector:
    """One regex's outcome over every item of a dataset.

    ``hits[i]`` is the (extracted, span) pair or ``None``; ``outcomes[i]``
    is the classification *when the regex supplies the extraction* and is
    only meaningful where ``hits[i]`` is not ``None`` (a matched item
    classifies as TP or FP regardless of what other regexes do, so the
    value composes into any regex set).
    """

    __slots__ = ("hits", "outcomes", "n_matched")

    def __init__(self, hits: List[Hit],
                 outcomes: List[Optional[Outcome]]) -> None:
        self.hits = hits
        self.outcomes = outcomes
        self.n_matched = sum(1 for hit in hits if hit is not None)


class MatchCache:
    """Evaluation cache bound to one :class:`SuffixDataset`.

    >>> from repro.core.types import TrainingItem
    >>> ds = SuffixDataset("x.com", [TrainingItem("as100.pop.x.com", 100),
    ...                              TrainingItem("as200.pop.x.com", 200)])
    >>> cache = MatchCache(ds)
    >>> regex = Regex.raw(r"^as(\\d+)\\.pop\\.x\\.com$")
    >>> cache.score_regex(regex).tp
    2
    >>> cache.score_regex(regex).tp    # second call: pure lookup
    2
    >>> cache.stats.vectors_built, cache.stats.vector_hits
    (1, 1)
    """

    def __init__(self, dataset: SuffixDataset) -> None:
        self.dataset = dataset
        self.stats = CacheStats()
        self._vectors: Dict[str, MatchVector] = {}
        self._scores: Dict[str, NCScore] = {}
        self._fn_baseline: Optional[List[bool]] = None

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def fn_baseline(self) -> List[bool]:
        """Per-item flag: does the hostname contain an apparent ASN?

        Unmatched items classify as FN exactly when this is true; caching
        it removes the per-evaluation apparent-run derivation.
        """
        if self._fn_baseline is None:
            dataset = self.dataset
            self._fn_baseline = [bool(dataset.apparent_runs(index))
                                 for index in range(len(dataset.items))]
        return self._fn_baseline

    def vector(self, regex: Regex) -> MatchVector:
        """The regex's match vector, building it on first request."""
        cached = self._vectors.get(regex.pattern)
        if cached is not None:
            self.stats.vector_hits += 1
            return cached
        dataset = self.dataset
        hits: List[Hit] = []
        outcomes: List[Optional[Outcome]] = []
        for index, item in enumerate(dataset.items):
            hit = regex.extract(item.hostname)
            self.stats.match_calls += 1
            if hit is None:
                hits.append(None)
                outcomes.append(None)
            else:
                extracted, span = hit
                hits.append(hit)
                outcomes.append(classify_extraction(
                    extracted, span, item.hostname, item.train_asn,
                    dataset.ip_spans(index)))
        vector = MatchVector(hits, outcomes)
        self._vectors[regex.pattern] = vector
        self.stats.vectors_built += 1
        return vector

    def score_regex(self, regex: Regex,
                    keep_outcomes: bool = False) -> NCScore:
        """Score one regex; repeat calls are dictionary lookups."""
        if not keep_outcomes:
            cached = self._scores.get(regex.pattern)
            if cached is not None:
                self.stats.vector_hits += 1
                return cached
        score = self._compose((self.vector(regex),), keep_outcomes)
        if not keep_outcomes:
            self._scores[regex.pattern] = score
        return score

    def score_nc(self, regexes: Sequence[Regex],
                 keep_outcomes: bool = False) -> NCScore:
        """Score an ordered regex set by first-match vector composition."""
        if len(regexes) == 1:
            return self.score_regex(regexes[0], keep_outcomes=keep_outcomes)
        vectors = tuple(self.vector(regex) for regex in regexes)
        self.stats.compositions += 1
        return self._compose(vectors, keep_outcomes)

    def _compose(self, vectors: Sequence[MatchVector],
                 keep_outcomes: bool) -> NCScore:
        """First-match merge of ``vectors`` into an :class:`NCScore`."""
        score = NCScore()
        baseline = self.fn_baseline
        for index in range(len(self.dataset.items)):
            extracted: Optional[str] = None
            outcome = Outcome.NONE
            for vector in vectors:
                hit = vector.hits[index]
                if hit is not None:
                    extracted = hit[0]
                    outcome = vector.outcomes[index]  # type: ignore[assignment]
                    break
            if extracted is None:
                outcome = Outcome.FN if baseline[index] else Outcome.NONE
            else:
                score.matches += 1
            if outcome is Outcome.TP:
                score.tp += 1
                score.distinct_asns.add(int(extracted))  # type: ignore[arg-type]
            elif outcome is Outcome.FP:
                score.fp += 1
            elif outcome is Outcome.FN:
                score.fn += 1
            if keep_outcomes:
                score.outcomes.append((outcome, extracted))
        return score


class ComposedNC:
    """Incrementally grown first-match state of an ordered regex set.

    Phase 4 extends a working set one regex at a time; each
    :meth:`extend` merges the new regex's cached vector into the items
    still unmatched -- O(items) per candidate instead of a fresh
    O(set x items x match) evaluation.  The running :attr:`score` is
    updated only for items that flip from unmatched to matched.
    """

    __slots__ = ("cache", "hits", "outcomes", "score")

    def __init__(self, cache: MatchCache, hits: List[Hit],
                 outcomes: List[Optional[Outcome]], score: NCScore) -> None:
        self.cache = cache
        self.hits = hits
        self.outcomes = outcomes
        self.score = score

    @classmethod
    def empty(cls, cache: MatchCache) -> "ComposedNC":
        """The empty convention: nothing matches; apparent items are FN."""
        n_items = len(cache.dataset.items)
        score = NCScore(fn=sum(1 for flag in cache.fn_baseline if flag))
        return cls(cache, [None] * n_items, [None] * n_items, score)

    @classmethod
    def of(cls, cache: MatchCache,
           regexes: Sequence[Regex]) -> "ComposedNC":
        """Composition of an existing ordered regex set."""
        composed = cls.empty(cache)
        for regex in regexes:
            composed = composed.extend(regex)
        return composed

    def extend(self, regex: Regex) -> "ComposedNC":
        """A new composition with ``regex`` appended to the set."""
        vector = self.cache.vector(regex)
        baseline = self.cache.fn_baseline
        hits = list(self.hits)
        outcomes = list(self.outcomes)
        score = NCScore(tp=self.score.tp, fp=self.score.fp,
                        fn=self.score.fn, matches=self.score.matches,
                        distinct_asns=set(self.score.distinct_asns))
        for index, hit in enumerate(vector.hits):
            if hit is None or hits[index] is not None:
                continue
            hits[index] = hit
            outcome = vector.outcomes[index]
            outcomes[index] = outcome
            score.matches += 1
            if baseline[index]:
                score.fn -= 1
            if outcome is Outcome.TP:
                score.tp += 1
                score.distinct_asns.add(int(hit[0]))
            elif outcome is Outcome.FP:
                score.fp += 1
        self.cache.stats.compositions += 1
        return ComposedNC(self.cache, hits, outcomes, score)
