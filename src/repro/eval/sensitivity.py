"""Section-6 limitations, quantified: sensitivity to stale hostnames.

The paper warns (section 6, citing Zhang et al.) that errors in
hostnames bound what any hostname-based method can deliver, and that
the learned regexes should be used together with topological checks.
This experiment sweeps the staleness rate of the synthetic reverse zone
and measures, at each level:

* the PPV of the learned usable conventions (training-side damage);
* the agreement uplift the section-5 feedback loop still achieves;
* the fraction of correct use/ignore decisions (table-2 style).

The expected shape: learned-convention quality and decision accuracy
degrade gracefully as staleness rises, while the topological
reasonableness test keeps wrongly-used extractions rare -- that is the
argument for pairing regexes with topology in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.bdrmapit.hints import apply_hints, hints_from_conventions
from repro.bdrmapit.metrics import agreement_metrics
from repro.core.hoiho import Hoiho
from repro.eval.common import pct, render_table
from repro.eval.context import ExperimentContext
from repro.itdk.builder import BuildConfig
from repro.naming.assigner import NamingConfig
from repro.pipeline import METHOD_BDRMAPIT, SnapshotSpec, run_snapshot
from repro.traceroute.campaign import CampaignConfig


@dataclass
class SensitivityRow:
    """Outcomes at one staleness level."""

    stale_rate: float
    usable: int = 0
    usable_ppv: float = 0.0
    agreement_before: float = 0.0
    agreement_after: float = 0.0
    decisions: int = 0
    correct_decisions: int = 0
    wrongly_used: int = 0

    @property
    def decision_rate(self) -> float:
        return (self.correct_decisions / self.decisions
                if self.decisions else 1.0)


@dataclass
class SensitivityResult:
    rows: List[SensitivityRow] = field(default_factory=list)


DEFAULT_STALE_RATES = (0.02, 0.10, 0.25)


def run(context: ExperimentContext,
        stale_rates=DEFAULT_STALE_RATES) -> SensitivityResult:
    """Re-run the 2020 snapshot + feedback loop per staleness level."""
    world = context.world
    result = SensitivityResult()
    for stale_rate in stale_rates:
        naming = NamingConfig(year=2020.0, stale_rate=stale_rate,
                              sloppy_stale_rate=max(stale_rate, 0.35),
                              ixp_stale_rate=min(stale_rate, 0.15))
        spec = SnapshotSpec(
            label="sens-%.2f" % stale_rate, year=2020.0,
            method=METHOD_BDRMAPIT, n_vps=24,
            seed=context.seed + 17, naming=naming,
            build=BuildConfig(campaign=CampaignConfig(n_vps=24)))
        snapshot_result = run_snapshot(world, spec, context.routing,
                                       tracer=context.tracer,
                                       naming_plan=context.naming_plan)

        learned = Hoiho(context.hoiho_config).run(snapshot_result.training)
        usable = learned.usable()
        tp = sum(c.score.tp for c in usable)
        fp = sum(c.score.fp for c in usable)

        hints = hints_from_conventions(snapshot_result.snapshot,
                                       learned.conventions)
        before = agreement_metrics(snapshot_result.annotations, hints,
                                   world.graph.orgs)
        outcome = apply_hints(snapshot_result.graph,
                              snapshot_result.annotations, hints,
                              world.graph.relationships, world.graph.orgs)
        after = agreement_metrics(outcome.annotations, hints,
                                  world.graph.orgs)

        row = SensitivityRow(
            stale_rate=stale_rate,
            usable=len(usable),
            usable_ppv=tp / (tp + fp) if tp + fp else 0.0,
            agreement_before=before.rate,
            agreement_after=after.rate)
        resolution = snapshot_result.snapshot.resolution
        for decision in outcome.incongruent():
            node = resolution.nodes.get(decision.hint.node_id)
            if node is None or node.true_asn is None:
                continue
            extracted = decision.hint.extracted_asn
            hostname_correct = (
                extracted == node.true_asn
                or world.graph.orgs.are_siblings(extracted,
                                                 node.true_asn))
            row.decisions += 1
            if decision.used == hostname_correct:
                row.correct_decisions += 1
            if decision.used and not hostname_correct:
                row.wrongly_used += 1
        result.rows.append(row)
    return result


def render(result: SensitivityResult) -> str:
    table = render_table(
        ["stale rate", "usable NCs", "NC PPV", "agreement before",
         "agreement after", "decisions", "correct", "wrongly used"],
        [(pct(row.stale_rate), row.usable, pct(row.usable_ppv),
          pct(row.agreement_before), pct(row.agreement_after),
          row.decisions, pct(row.decision_rate), row.wrongly_used)
         for row in result.rows],
        title="Sensitivity: hostname staleness vs the feedback loop "
              "(section 6)")
    return table
