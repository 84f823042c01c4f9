"""The direct first-match scoring loop: the oracle for the match cache.

The learner scores every regex through
:class:`~repro.core.matchcache.MatchCache`, which composes cached
per-regex match vectors.  These functions score the plain way -- each
hostname against each regex, in order, until one matches -- and tests
hold the cache's scores to them.  :class:`ReferenceScorer` stands in
for the cache inside the learner, so a whole learn can be compared too
(:func:`learn_with_reference`).
"""

from typing import List, Optional, Sequence, Tuple
from unittest import mock

from repro.core import hoiho
from repro.core.congruence import Outcome, classify_extraction
from repro.core.evaluate import NCScore
from repro.core.matchcache import MatchCache
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset


def evaluate_nc(regexes: Sequence[Regex], dataset: SuffixDataset,
                keep_outcomes: bool = False) -> NCScore:
    """Score an ordered regex set over ``dataset``, item by item."""
    score = NCScore()
    for index, item in enumerate(dataset.items):
        extracted: Optional[str] = None
        span: Optional[Tuple[int, int]] = None
        for regex in regexes:
            hit = regex.extract(item.hostname)
            if hit is not None:
                extracted, span = hit
                break
        outcome = classify_extraction(extracted, span, item.hostname,
                                      item.train_asn,
                                      dataset.ip_spans(index))
        if extracted is not None:
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


def evaluate_regex(regex: Regex, dataset: SuffixDataset,
                   keep_outcomes: bool = False) -> NCScore:
    """Score a single regex (an NC of one)."""
    return evaluate_nc((regex,), dataset, keep_outcomes=keep_outcomes)


def matched_indices(regex: Regex, dataset: SuffixDataset) -> List[int]:
    """Indices of items the regex matches."""
    out: List[int] = []
    for index, item in enumerate(dataset.items):
        if regex.compiled.match(item.hostname) is not None:
            out.append(index)
    return out


class ReferenceScorer(MatchCache):
    """A :class:`MatchCache` whose scores come from the direct loop.

    Phase 3's empty-vector skip and phase 4's set composition still use
    the inherited match vectors; every score the learner asks for by
    name -- :meth:`score_regex` and :meth:`score_nc` -- is the
    reference loop's.
    """

    def score_regex(self, regex: Regex,
                    keep_outcomes: bool = False) -> NCScore:
        return evaluate_regex(regex, self.dataset,
                              keep_outcomes=keep_outcomes)

    def score_nc(self, regexes: Sequence[Regex],
                 keep_outcomes: bool = False) -> NCScore:
        return evaluate_nc(regexes, self.dataset,
                           keep_outcomes=keep_outcomes)


def learn_with_reference(dataset: SuffixDataset, config=None):
    """:func:`~repro.core.hoiho.learn_suffix_traced` with
    :class:`ReferenceScorer` substituted for the learner's cache."""
    with mock.patch.object(hoiho, "MatchCache", ReferenceScorer):
        return hoiho.learn_suffix_traced(dataset, config)
