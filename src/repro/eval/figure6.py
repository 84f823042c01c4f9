"""Figure 6: evaluation of usable conventions on their training data.

The paper's figure shows the PPV of usable NCs per training set growing
as inference methods improve: 74.8-80.7% for RouterToAsAssignment
snapshots, 83.7-87.4% for bdrmapIT, and 96.0% for PeeringDB, with
sibling ASes accounting for roughly another 1-2 points.  This experiment
reproduces the series and the sibling adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.congruence import Outcome
from repro.core.evaluate import evaluate_nc
from repro.core.types import group_by_suffix
from repro.eval.common import pct, render_table
from repro.eval.context import ExperimentContext


@dataclass
class Figure6Row:
    """PPV of one training set's usable conventions."""

    label: str
    kind: str
    method: str
    year: float
    tp: int
    fp: int
    sibling_fp: int        # FPs whose extraction is a training-ASN sibling

    @property
    def ppv(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def ppv_with_siblings(self) -> float:
        total = self.tp + self.fp
        return (self.tp + self.sibling_fp) / total if total else 0.0


@dataclass
class Figure6Result:
    rows: List[Figure6Row] = field(default_factory=list)


def run(context: ExperimentContext) -> Figure6Result:
    """Evaluate every usable convention against its own training set."""
    orgs = context.world.graph.orgs
    result = Figure6Result()
    for training_set in context.timeline:
        learned = context.learned(training_set.label)
        datasets = group_by_suffix(training_set.items)
        tp = fp = sibling_fp = 0
        for convention in learned.usable():
            dataset = datasets.get(convention.suffix)
            if dataset is None:
                continue
            score = evaluate_nc(convention.regexes, dataset,
                                keep_outcomes=True)
            tp += score.tp
            fp += score.fp
            for (outcome, extracted), item in zip(score.outcomes,
                                                  dataset.items):
                if outcome is Outcome.FP and extracted \
                        and orgs.are_siblings(int(extracted),
                                              item.train_asn) \
                        and int(extracted) != item.train_asn:
                    sibling_fp += 1
        result.rows.append(Figure6Row(
            label=training_set.label, kind=training_set.kind,
            method=training_set.method, year=training_set.year,
            tp=tp, fp=fp, sibling_fp=sibling_fp))
    return result


def render(result: Figure6Result) -> str:
    return render_table(
        ["set", "method", "TP", "FP", "PPV", "PPV+siblings"],
        [(row.label, row.method, row.tp, row.fp, pct(row.ppv),
          pct(row.ppv_with_siblings)) for row in result.rows],
        title="Figure 6: PPV of usable NCs on training data")
