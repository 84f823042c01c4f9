"""Section 7: future directions, quantified.

Two preliminary investigations from the paper's final section:

* **AS names**: more suffixes embed AS *names* than AS numbers (at
  least 3x in the paper).  We run the dictionary-free name learner
  (:mod:`repro.core.asname`) next to the ASN learner on the latest ITDK
  and compare suffix counts and extraction accuracy against ground
  truth.
* **Expansion beyond traceroute** (the OpenINTEL PTR experiment): the
  learned regexes match far more hostnames in the *full* reverse zone
  than in the traceroute-observed subset (5.4K -> 22.5K in the paper),
  revealing interconnection the measurement infrastructure never saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.asname import NameConvention, NameHoiho
from repro.eval.common import pct
from repro.eval.context import ExperimentContext
from repro.psl import default_psl


@dataclass
class Section7Result:
    asn_suffixes: int = 0
    name_suffixes: int = 0
    name_conventions: Dict[str, NameConvention] = field(default_factory=dict)
    name_checked: int = 0
    name_correct: int = 0
    observed_matches: int = 0      # learned NC matches on ITDK hostnames
    full_zone_matches: int = 0     # ... on the entire reverse zone

    @property
    def name_accuracy(self) -> float:
        return (self.name_correct / self.name_checked
                if self.name_checked else 0.0)

    @property
    def expansion_factor(self) -> float:
        return (self.full_zone_matches / self.observed_matches
                if self.observed_matches else 0.0)


def run(context: ExperimentContext) -> Section7Result:
    """Run both section-7 investigations on the latest ITDK."""
    training_set = context.latest_itdk()
    snapshot_result = training_set.snapshot
    assert snapshot_result is not None
    world = context.world
    learned = context.learned(training_set.label)
    result = Section7Result()
    result.asn_suffixes = len(learned.usable())

    # -- AS names ---------------------------------------------------------
    result.name_conventions = NameHoiho().run(training_set.items)
    # Suffixes that already yield ASN conventions do not count as
    # name-only capability.
    asn_suffix_set = {c.suffix for c in learned.usable()}
    name_only = {suffix: conv
                 for suffix, conv in result.name_conventions.items()
                 if suffix not in asn_suffix_set}
    result.name_suffixes = len(name_only)
    for suffix, convention in name_only.items():
        for address, hostname in snapshot_result.snapshot.named_addresses():
            if not hostname.endswith("." + suffix):
                continue
            extracted = convention.extract(hostname)
            if extracted is None:
                continue
            truth = world.true_owner(address)
            if truth is None:
                continue
            result.name_checked += 1
            if extracted == truth \
                    or world.graph.orgs.are_siblings(extracted, truth):
                result.name_correct += 1

    # -- expansion beyond traceroute (OpenINTEL analog) --------------------
    conventions = learned.conventions
    psl = default_psl()

    def matches(hostname: str) -> bool:
        suffix = psl.registered_domain(hostname)
        if suffix is None:
            return False
        convention = conventions.get(suffix)
        return (convention is not None
                and convention.usable
                and convention.extract(hostname) is not None)

    for _, hostname in snapshot_result.snapshot.named_addresses():
        if matches(hostname):
            result.observed_matches += 1
    # The full reverse zone: every PTR record operators published,
    # whether or not traceroute ever crossed the interface.
    for record in snapshot_result.naming.records.values():
        if matches(record.hostname):
            result.full_zone_matches += 1
    return result


def render(result: Section7Result) -> str:
    lines = [
        "Section 7: future directions",
        "",
        "AS-name conventions (dictionary-free):",
        "  suffixes with usable ASN conventions:  %d" % result.asn_suffixes,
        "  additional suffixes with learned AS-name conventions: %d"
        % result.name_suffixes,
        "  name-based extraction accuracy vs ground truth: %s (%d checked)"
        % (pct(result.name_accuracy), result.name_checked),
        "",
        "Expansion beyond traceroute (OpenINTEL analog):",
        "  hostnames matching usable NCs, traceroute-observed: %d"
        % result.observed_matches,
        "  hostnames matching usable NCs, full reverse zone:   %d"
        % result.full_zone_matches,
        "  expansion factor: %.1fx" % result.expansion_factor,
    ]
    return "\n".join(lines)
