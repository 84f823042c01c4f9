"""Human-readable reports of learned conventions.

The paper publishes its training data and inferred regexes on a website
showing how each regex applies to the training hostnames [20].  This
module renders the same view as text: per suffix, the convention, its
score, and every hostname annotated with its classification (TP/FP/FN
and the extraction).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.congruence import Outcome
from repro.core.evaluate import evaluate_nc
from repro.core.hoiho import HoihoResult
from repro.core.select import LearnedConvention
from repro.core.types import SuffixDataset

_MARKS = {
    Outcome.TP: "TP",
    Outcome.FP: "FP",
    Outcome.FN: "FN",
    Outcome.NONE: "--",
}


def render_convention(convention: LearnedConvention,
                      dataset: Optional[SuffixDataset] = None,
                      max_rows: Optional[int] = None) -> str:
    """One suffix's page: regexes, score, and per-hostname outcomes."""
    lines: List[str] = []
    lines.append("suffix: %s" % convention.suffix)
    lines.append("class:  %s" % convention.nc_class.value)
    score = convention.score
    lines.append("score:  TP=%d FP=%d FN=%d ATP=%d PPV=%.1f%% "
                 "distinct-ASNs=%d"
                 % (score.tp, score.fp, score.fn, score.atp,
                    100.0 * score.ppv, score.distinct))
    for index, pattern in enumerate(convention.patterns()):
        lines.append("regex %d: %s" % (index + 1, pattern))
    if dataset is not None:
        lines.append("")
        # The learner attaches per-item outcomes to the selected score
        # (via the match cache); reuse them when they cover this dataset.
        if len(score.outcomes) == len(dataset):
            detailed = score
        else:
            detailed = evaluate_nc(convention.regexes, dataset,
                                   keep_outcomes=True)
        rows = list(zip(detailed.outcomes, dataset.items))
        if max_rows is not None:
            rows = rows[:max_rows]
        width = max((len(item.hostname) for _, item in rows), default=10)
        for (outcome, extracted), item in rows:
            lines.append("  [%s] %-*s train AS%-8d extracted %s"
                         % (_MARKS[outcome], width, item.hostname,
                            item.train_asn,
                            extracted if extracted else "-"))
    return "\n".join(lines)


def render_result(result: HoihoResult,
                  datasets: Optional[dict] = None,
                  usable_only: bool = False) -> str:
    """All learned conventions, one page per suffix."""
    pages: List[str] = []
    for suffix in sorted(result.conventions):
        convention = result.conventions[suffix]
        if usable_only and not convention.usable:
            continue
        dataset = datasets.get(suffix) if datasets else None
        pages.append(render_convention(convention, dataset))
    header = ("# %d suffixes examined, %d conventions learned\n"
              % (result.suffixes_examined, len(result.conventions)))
    return header + "\n\n".join(pages)
