"""Experiment harness: regenerate every table and figure of the paper.

Each experiment module exposes a ``run(context)`` returning a structured
result plus a ``render(result)`` producing the textual table
``repro-hoiho`` prints.  :class:`repro.eval.context.ExperimentContext` shares
the expensive artifacts (world, routing, timeline snapshots) between
experiments.

Experiment index (see DESIGN.md section 4):

========== ================================================
figure5    good/promising NC counts across 19 training sets
figure6    PPV of usable NCs per training set (+ siblings)
table1     taxonomy of ASN placement in usable conventions
table2     validation of the modified bdrmapIT's decisions
section5   agreement/error-rate headline numbers
appendix_a merging vs regex sets on the figure-4 data
ablation   contribution of each learning phase / heuristic
========== ================================================
"""

from repro.eval.context import ExperimentContext, Scale
from repro.eval import (
    figure5,
    figure6,
    table1,
    table2,
    section5,
    section7,
    sensitivity,
    appendix_a,
    ablation,
)

__all__ = [
    "ExperimentContext",
    "Scale",
    "figure5",
    "figure6",
    "table1",
    "table2",
    "section5",
    "section7",
    "sensitivity",
    "appendix_a",
    "ablation",
]
