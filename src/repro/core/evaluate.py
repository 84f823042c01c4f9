"""Scoring regexes and regex sets against a suffix dataset.

A *naming convention* (NC) is an ordered list of regexes; the first regex
that matches a hostname supplies the extraction.  Scores follow section
3.1: ATP = TP - (FP + FN); PPV = TP / (TP + FP); plus the count of
distinct congruent extracted ASNs that gates usability (section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.congruence import Outcome
from repro.core.regex_model import Regex
from repro.core.types import SuffixDataset


@dataclass
class NCScore:
    """Aggregate score of a regex or regex set over one dataset."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    matches: int = 0
    distinct_asns: Set[int] = field(default_factory=set)
    # item index -> (outcome, extracted text or None)
    outcomes: List[Tuple[Outcome, Optional[str]]] = field(
        default_factory=list)

    @property
    def atp(self) -> int:
        """Absolute true positives: TP - (FP + FN)."""
        return self.tp - (self.fp + self.fn)

    @property
    def ppv(self) -> float:
        """Positive predictive value; 0 when nothing was extracted."""
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def distinct(self) -> int:
        """Number of distinct congruent extracted ASNs."""
        return len(self.distinct_asns)

    def rank_key(self) -> Tuple:
        """Sort key: better scores first (use with ``sorted(...)``)."""
        return (-self.atp, -self.tp, self.fp, self.fn)

    def __repr__(self) -> str:
        return ("NCScore(tp=%d fp=%d fn=%d atp=%d matches=%d "
                "distinct=%d ppv=%.3f)"
                % (self.tp, self.fp, self.fn, self.atp, self.matches,
                   self.distinct, self.ppv))


def evaluate_nc(regexes: Sequence[Regex], dataset: SuffixDataset,
                keep_outcomes: bool = False) -> NCScore:
    """Score an ordered regex set over ``dataset`` once.

    The first matching regex supplies the extraction for a hostname;
    hostnames matching no regex are FNs when they contain an apparent
    ASN.  With ``keep_outcomes`` the per-item classifications are
    retained (used by reporting).  The score comes from a fresh
    :class:`~repro.core.matchcache.MatchCache`, the one scorer; callers
    that score many regexes over one dataset keep a cache instead.
    """
    from repro.core.matchcache import MatchCache
    return MatchCache(dataset).score_nc(regexes, keep_outcomes=keep_outcomes)
