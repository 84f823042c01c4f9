"""Appendix A: merging regexes vs building regex sets.

The paper's figure 7 contrasts three equivalent expressions of the
Equinix convention: NC #7 (two crisp regexes -- what Hoiho selects),
NC #7a (one over-merged regex with nested or-groups) and NC #7b (four
fragmented regexes).  This experiment scores all three on the figure-4
training data and confirms what Hoiho actually learns matches NC #7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.evaluate import NCScore, evaluate_nc
from repro.core.hoiho import learn_suffix
from repro.core.regex_model import Regex
from repro.core.select import LearnedConvention
from repro.core.types import SuffixDataset
from repro.eval.common import render_table
from repro.paperdata import FIGURE4_ITEMS, NC7_PATTERNS

#: NC #7: what the paper (and our learner) selects.
NC7 = tuple(Regex.raw(pattern) for pattern in NC7_PATTERNS)

#: NC #7a: the over-merged single regex.
NC7A = (
    Regex.raw(r"^(?:p|s)?(\d+)(?:\.[a-z\d]+|-.+)\.equinix\.com$"),
)

#: NC #7b: the fragmented four-regex set.
NC7B = (
    Regex.raw(r"^(\d+)\.[a-z\d]+\.equinix\.com$"),
    Regex.raw(r"^p(\d+)\.[a-z\d]+\.equinix\.com$"),
    Regex.raw(r"^s(\d+)\.[a-z]+\.equinix\.com$"),
    Regex.raw(r"^(\d+)-.+\.equinix\.com$"),
)


@dataclass
class AppendixAResult:
    """Scores of the three equivalent conventions, plus what we learn."""

    scores: List[Tuple[str, int, NCScore]] = field(default_factory=list)
    learned: Optional[LearnedConvention] = None
    learned_matches_nc7: bool = False


def figure4_dataset() -> SuffixDataset:
    """The figure-4 training data as a dataset."""
    return SuffixDataset("equinix.com", FIGURE4_ITEMS)


def run(context=None) -> AppendixAResult:
    """Score NC #7/#7a/#7b and verify the learner's selection."""
    dataset = figure4_dataset()
    result = AppendixAResult()
    for name, regexes in (("NC #7", NC7), ("NC #7a", NC7A),
                          ("NC #7b", NC7B)):
        score = evaluate_nc(regexes, dataset)
        result.scores.append((name, len(regexes), score))
    result.learned = learn_suffix(dataset)
    if result.learned is not None:
        result.learned_matches_nc7 = (
            result.learned.patterns() == [r.pattern for r in NC7])
    return result


def render(result: AppendixAResult) -> str:
    table = render_table(
        ["convention", "regexes", "TP", "FP", "FN", "ATP", "matches"],
        [(name, n, s.tp, s.fp, s.fn, s.atp, s.matches)
         for name, n, s in result.scores],
        title="Appendix A: equivalent conventions on the figure-4 data")
    lines = [table, ""]
    if result.learned is not None:
        lines.append("learner selects: %s"
                     % " | ".join(result.learned.patterns()))
        lines.append("matches the paper's NC #7: %s"
                     % result.learned_matches_nc7)
    return "\n".join(lines)
