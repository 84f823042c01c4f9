"""Table 1: taxonomy of how and where operators embed ASNs.

Over the usable conventions of the latest ITDK and PeeringDB sets
combined, the paper reports the placement mix (simple 17.7%, start
50.8%, end 10.8%, bare 5.4%, complex 15.4%) and, over the single-regex
conventions, a contrasting mix where end placement dominates (43.1%) --
operators embedding their *own* ASN (IXP members) put it at the end,
while operators labelling a *neighbor* put it at the start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.select import LearnedConvention
from repro.core.taxonomy import Taxonomy, taxonomy_of
from repro.eval.common import pct, render_table
from repro.eval.context import ExperimentContext


@dataclass
class Table1Result:
    """Counts per taxonomy class, for usable and single-regex NCs."""

    usable: Dict[Taxonomy, int] = field(default_factory=dict)
    single: Dict[Taxonomy, int] = field(default_factory=dict)
    n_usable: int = 0
    n_single: int = 0


def run(context: ExperimentContext) -> Table1Result:
    """Classify the union of latest-ITDK and latest-PeeringDB usable NCs."""
    conventions: Dict[str, LearnedConvention] = {}
    for label in (context.latest_itdk().label, context.latest_pdb().label):
        for convention in context.learned(label).usable():
            conventions.setdefault(convention.suffix, convention)

    result = Table1Result(
        usable={t: 0 for t in Taxonomy},
        single={t: 0 for t in Taxonomy})
    for convention in conventions.values():
        taxonomy = taxonomy_of(convention.regexes)
        result.usable[taxonomy] += 1
        result.n_usable += 1
        if convention.single:
            result.single[taxonomy] += 1
            result.n_single += 1
    return result


def render(result: Table1Result) -> str:
    rows = []
    for taxonomy in Taxonomy:
        usable_share = (result.usable[taxonomy] / result.n_usable
                        if result.n_usable else 0.0)
        single_share = (result.single[taxonomy] / result.n_single
                        if result.n_single else 0.0)
        rows.append((taxonomy.value,
                     "%d (%s)" % (result.usable[taxonomy],
                                  pct(usable_share)),
                     "%d (%s)" % (result.single[taxonomy],
                                  pct(single_share))))
    table = render_table(
        ["placement", "usable NCs", "single-regex NCs"], rows,
        title="Table 1: taxonomy of ASN placement in hostnames")
    return "%s\n\ntotal usable: %d, single-regex: %d" % (
        table, result.n_usable, result.n_single)
