"""Phase 4: build regex sets (section 3.5).

Hoiho ranks candidate regexes by ATP and, for each of the best seeds,
greedily grows a set: walking down the rank order, a regex joins the
working set when the combined ATP strictly improves.  Unlike the
alias-resolution Hoiho, there is no PPV gate on additions -- the goal is
coverage, so that discrepancies between training and embedded ASNs
surface (the training ASN might be the wrong one).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.evaluate import NCScore
from repro.core.matchcache import ComposedNC, MatchCache
from repro.core.regex_model import Regex


def rank_regexes(scored: Dict[Regex, NCScore]) -> List[Regex]:
    """Regexes ordered best-first.

    Rank by score (ATP, then TPs/FPs/FNs), breaking ties towards the
    most *specific* pattern -- phase 3 exists to raise specificity, so a
    specialised regex beats its looser ancestor at equal score.
    """
    return sorted(scored,
                  key=lambda r: scored[r].rank_key()
                  + (r.specificity_cost(), r.pattern))


def build_regex_sets(scored: Dict[Regex, NCScore],
                     cache: MatchCache,
                     pool_size: int = 25,
                     n_seeds: int = 6,
                     ) -> List[Tuple[Tuple[Regex, ...], NCScore]]:
    """Candidate naming conventions (regex sets) with their scores.

    ``pool_size`` caps how far down the ranking additions are considered;
    ``n_seeds`` caps how many distinct starting regexes grow a set.  The
    result always includes the single-regex conventions for the pool, so
    selection (section 3.6) can prefer fewer regexes.

    Each candidate superset is scored by extending a
    :class:`~repro.core.matchcache.ComposedNC` -- O(items) per candidate
    from the match vectors ``cache`` already built -- instead of
    re-running every regex in the set against every hostname.
    """
    ranked = rank_regexes(scored)[:pool_size]
    conventions: Dict[Tuple[Regex, ...], NCScore] = {}

    for regex in ranked:
        conventions[(regex,)] = scored[regex]

    for seed_index in range(min(n_seeds, len(ranked))):
        seed = ranked[seed_index]
        working: List[Regex] = [seed]
        current = scored[seed]
        composed = ComposedNC.of(cache, (seed,))
        for regex in ranked[seed_index + 1:]:
            candidate = composed.extend(regex)
            if candidate.score.atp > current.atp:
                working.append(regex)
                composed = candidate
                current = candidate.score
        key = tuple(working)
        if key not in conventions:
            conventions[key] = current

    ordered = sorted(
        conventions.items(),
        key=lambda kv: (kv[1].rank_key(), len(kv[0]),
                        sum(r.specificity_cost() for r in kv[0]),
                        tuple(r.pattern for r in kv[0])))
    return ordered
