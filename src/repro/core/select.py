"""Best-convention selection (section 3.6) and NC classification (§4).

Selection starts from the top-ATP convention, then prefers a convention
expressed in fewer regexes when it matches at least as many hostnames,
has at least as many TPs, and at most one more FP -- fewer regexes mean
less opportunity for overfitting.

Classification follows section 4: *good* conventions extract at least
three unique congruent ASNs with PPV >= 80%; *promising* at least two
with PPV >= 50%; good and promising are *usable*; the rest are *poor*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.evaluate import NCScore
from repro.core.regex_model import Regex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.matchcache import MatchCache
    from repro.core.taxonomy import Taxonomy
    from repro.psl import PublicSuffixList


class NCClass(enum.Enum):
    """Quality class of a learned naming convention (section 4)."""

    GOOD = "good"
    PROMISING = "promising"
    POOR = "poor"

    @property
    def usable(self) -> bool:
        """Good and promising conventions are usable."""
        return self is not NCClass.POOR


def classify_nc(score: NCScore) -> NCClass:
    """Classify a convention's score per section 4 thresholds."""
    if score.distinct >= 3 and score.ppv >= 0.80:
        return NCClass.GOOD
    if score.distinct >= 2 and score.ppv >= 0.50:
        return NCClass.PROMISING
    return NCClass.POOR


def select_best(
    conventions: Sequence[Tuple[Tuple[Regex, ...], NCScore]],
    cache: "Optional[MatchCache]" = None,
) -> Optional[Tuple[Tuple[Regex, ...], NCScore]]:
    """Pick the best convention from phase-4 candidates.

    ``conventions`` must already be ordered best-first by ATP rank (as
    :func:`repro.core.phase4.build_regex_sets` returns them).  With
    ``cache`` the winner's score is re-composed with per-item outcomes
    attached -- a vector composition, not a re-match -- so reporting can
    render the per-hostname view without evaluating again.
    """
    if not conventions:
        return None
    best_regexes, best_score = conventions[0]
    for regexes, score in conventions[1:]:
        if (len(regexes) < len(best_regexes)
                and score.matches >= best_score.matches
                and score.tp >= best_score.tp
                and score.fp <= best_score.fp + 1):
            best_regexes, best_score = regexes, score
    if cache is not None and not best_score.outcomes:
        best_score = cache.score_nc(best_regexes, keep_outcomes=True)
    return best_regexes, best_score


@dataclass
class LearnedConvention:
    """A learned naming convention for one suffix."""

    suffix: str
    regexes: Tuple[Regex, ...]
    score: NCScore
    nc_class: NCClass

    @property
    def usable(self) -> bool:
        """Usable = good or promising (section 4)."""
        return self.nc_class.usable

    @property
    def single(self) -> bool:
        """Conventions expressed as exactly one regex."""
        return len(self.regexes) == 1

    def extract(self, hostname: str) -> Optional[int]:
        """Extract an ASN from ``hostname`` using the convention.

        The first matching regex supplies the extraction, mirroring
        evaluation order.  Returns ``None`` when no regex matches.
        """
        hostname = hostname.lower()
        for regex in self.regexes:
            hit = regex.extract(hostname)
            if hit is not None:
                return int(hit[0])
        return None

    def patterns(self) -> List[str]:
        """Rendered patterns, in evaluation order."""
        return [regex.pattern for regex in self.regexes]

    def __repr__(self) -> str:
        return "LearnedConvention(%s, %s, %s)" % (
            self.suffix, self.nc_class.value, " | ".join(self.patterns()))


@dataclass
class HoihoResult:
    """Learned conventions for every suffix that yielded one.

    It lives beside :class:`LearnedConvention`, not with the learner
    in :mod:`repro.core.hoiho` (which re-exports it, so results pickled
    under that name still load): serving holds results and never
    imports the learner.
    """

    conventions: Dict[str, LearnedConvention] = field(default_factory=dict)
    suffixes_examined: int = 0

    def by_class(self, nc_class: NCClass) -> List[LearnedConvention]:
        """Conventions of one class, sorted by suffix."""
        return [self.conventions[s] for s in sorted(self.conventions)
                if self.conventions[s].nc_class is nc_class]

    def usable(self) -> List[LearnedConvention]:
        """Good + promising conventions, sorted by suffix."""
        return [self.conventions[s] for s in sorted(self.conventions)
                if self.conventions[s].usable]

    def class_counts(self) -> Dict[str, int]:
        """{'good': n, 'promising': n, 'poor': n} summary."""
        counts = {c.value: 0 for c in NCClass}
        for convention in self.conventions.values():
            counts[convention.nc_class.value] += 1
        return counts

    def taxonomy_of(self, suffix: str) -> Taxonomy:
        """Table-1 class of the convention learned for ``suffix``."""
        from repro.core.taxonomy import taxonomy_of
        return taxonomy_of(self.conventions[suffix].regexes)

    def extract(self, hostname: str,
                psl: Optional[PublicSuffixList] = None) -> Optional[int]:
        """Extract an ASN from an arbitrary hostname, if a learned
        convention covers its suffix."""
        from repro.psl import default_psl
        psl = psl or default_psl()
        suffix = psl.registered_domain(hostname.lower())
        if suffix is None:
            return None
        convention = self.conventions.get(suffix)
        if convention is None:
            return None
        return convention.extract(hostname)
