"""The paper's shape claims, checked on every experiment's result.

The reproduction target is the *shape* of each result (who wins, the
direction of trends, approximate factors), not the paper's numbers.
Each ``check_<name>(result)`` below asserts one experiment's shape; the
``slow`` tests feed them the session's one run of every experiment
(``tests/integration/conftest.py``), the same result objects the SMALL
experiment digest renders::

    PYTHONPATH=src python -m pytest -m slow tests/integration/test_paper_shapes.py
    REPRO_SCALE=full PYTHONPATH=src python -m pytest -m slow \\
        tests/integration/test_paper_shapes.py

``REPRO_SCALE`` (tiny | small | full, default small) picks the scale.
The unmarked tests at the end run in tier-1: they build no world, and
show on constructed results that a wrong shape fails its check.
"""

import os
from typing import NamedTuple

import pytest

from repro.cli import _EXPERIMENTS
from repro.core.geohint import learn_geo_conventions
from repro.core.routername import RouterItem, learn_router_names
from repro.core.taxonomy import Taxonomy
from repro.eval.ablation import AblationResult, AblationRow
from repro.eval.context import Scale
from repro.eval.figure6 import Figure6Result, Figure6Row
from tests.integration.test_experiment_digest import SEED

SCALE = Scale(os.environ.get("REPRO_SCALE", "small"))


def check_ablation(result):
    """Each component earns its keep: disabling regex sets or merging
    never improves usable-convention counts, and the full bdrmapIT
    beats pure election on ground-truth accuracy."""
    learner = {row.name: row for row in result.learner_rows}
    full = learner["full"]
    assert full.usable >= learner["phase 1 only"].usable
    assert full.usable >= learner["no regex sets (phase 4)"].usable
    assert full.total_atp >= learner["phase 1 only"].total_atp

    bdrmapit = {row.name: row for row in result.bdrmapit_rows}
    # Election-only is the clear loser; individual heuristics overlap in
    # what they fix, so any single one may be near-redundant on a given
    # seed -- allow small inversions there.
    assert bdrmapit["full"].accuracy > bdrmapit["election only"].accuracy, \
        "full bdrmapIT must beat election only"
    assert bdrmapit["full"].accuracy > \
        bdrmapit["no subsequent votes"].accuracy - 0.02
    assert bdrmapit["full"].accuracy > \
        bdrmapit["no relationship election"].accuracy - 0.02


def check_appendix_a(result):
    """The three equivalent Equinix conventions (figure 7) score alike
    on the figure-4 data, and the learner picks the paper's preferred
    two-regex NC #7."""
    atps = {name: score.atp for name, _, score in result.scores}
    assert atps == {"NC #7": 8, "NC #7a": 8, "NC #7b": 8}

    sizes = {name: n for name, n, _ in result.scores}
    assert sizes == {"NC #7": 2, "NC #7a": 1, "NC #7b": 4}

    assert result.learned is not None
    assert result.learned_matches_nc7


def check_figure5(result):
    """Usable conventions grow over the study period: the late
    (bdrmapIT-era) snapshots find substantially more good conventions
    than the early RouterToAsAssignment era."""
    itdk_rows = [row for row in result.rows if row.kind == "itdk"]
    assert len(itdk_rows) == 17
    pdb_rows = [row for row in result.rows if row.kind == "peeringdb"]
    assert len(pdb_rows) == 2

    # Shape: the usable count grows over time (paper: 12 -> 55 good).
    early = [row.usable for row in itdk_rows[:4]]
    late = [row.usable for row in itdk_rows[-4:]]
    assert sum(late) / len(late) > 1.5 * max(sum(early) / len(early), 1)

    # PeeringDB contributes its own usable conventions (paper: 55 good
    # for the Feb-2020 snapshot) and overlaps partially with the ITDK.
    assert all(row.usable > 0 for row in pdb_rows)
    assert result.total_usable_suffixes >= max(r.usable for r in result.rows)
    assert result.overlap_suffixes >= 1
    assert result.overlap_identical <= result.overlap_suffixes


def _mean_ppv(rows):
    """Mean PPV over rows that extracted anything at all.

    Sparse early snapshots can yield no usable conventions (an empty
    row); those carry no PPV information and are excluded, as an empty
    point would be in the paper's figure.
    """
    values = [row.ppv for row in rows if row.tp + row.fp > 0]
    return sum(values) / len(values) if values else 0.0


def check_figure6(result):
    """Training data from bdrmapIT-era snapshots agrees with extracted
    ASNs more than the RouterToAsAssignment era (83.7-87.4% vs
    74.8-80.7% in the paper), operator-curated PeeringDB training is
    best (96.0%), and crediting sibling ASNs adds a point or two."""
    rtaa = [row for row in result.rows if row.method == "rtaa"]
    bdrmapit = [row for row in result.rows if row.method == "bdrmapit"]
    pdb = [row for row in result.rows if row.method == "operator"]
    assert rtaa and bdrmapit and pdb

    rtaa_ppv = _mean_ppv(rtaa)
    bdrmapit_ppv = _mean_ppv(bdrmapit)
    pdb_ppv = _mean_ppv(pdb)

    # Who wins, in order: PeeringDB > bdrmapIT > RouterToAsAssignment.
    assert pdb_ppv > bdrmapit_ppv > rtaa_ppv, \
        "PPV order must be PeeringDB > bdrmapIT > RTAA"

    # Rough bands (paper: ~75-81%, ~84-87%, 96%).
    assert 0.55 < rtaa_ppv < 0.88
    assert 0.75 < bdrmapit_ppv < 0.95
    assert pdb_ppv > 0.88

    # Sibling adjustment helps but only by a few points.
    for row in result.rows:
        assert row.ppv <= row.ppv_with_siblings <= row.ppv + 0.12


def check_section5(result):
    """Feeding extracted ASNs back into bdrmapIT raises the agreement
    between inferred and extracted ASNs (87.4% -> 97.1% in the paper),
    cuts the error rate several-fold (1/7.9 -> 1/34.5), improves
    ground-truth accuracy, and good conventions' extractions are used
    at a higher rate than poorer classes'."""
    before = result.agreement_before
    after = result.agreement_after
    assert before.total > 20

    # Initial agreement sits in the high-80s band; the feedback loop
    # pushes it well past it (paper: 87.4% -> 97.1%).
    assert 0.70 < before.rate < 0.97
    assert after.rate > before.rate
    assert after.rate > 0.93

    # Error rate improves by at least ~3x (paper: 7.9 -> 34.5).
    if before.error_ratio is not None and after.error_ratio is not None:
        assert after.error_ratio > 2.5 * before.error_ratio

    # Ground-truth accuracy on the labelled routers improves too: the
    # hostnames were right more often than the heuristic.
    assert result.accuracy_after.rate >= result.accuracy_before.rate

    # Usage ordering by convention class (paper: 82.5/44.0/18.2%).
    # Poor conventions contribute very few incongruent extractions in
    # small worlds, so only assert the ordering with a real sample.
    used = result.used_by_class
    if "good" in used and "poor" in used and used["poor"][1] >= 8:
        good_rate = used["good"][0] / used["good"][1]
        poor_rate = used["poor"][0] / used["poor"][1]
        assert good_rate >= poor_rate


def check_section7(result):
    """AS-name conventions are learnable without a dictionary and
    extract mostly-correct operators, and the learned regexes match
    more hostnames in the full reverse zone than traceroute observed
    (5.4K -> 22.5K in the paper)."""
    # AS-name conventions exist beyond the ASN-convention suffixes and
    # their extractions are mostly correct against ground truth.
    assert result.name_suffixes >= 1
    if result.name_checked >= 10:
        assert result.name_accuracy > 0.7

    # The full reverse zone contains strictly more matching hostnames
    # than the traceroute-observed subset (cold backup links etc.).
    assert result.observed_matches > 0
    assert result.full_zone_matches > result.observed_matches
    assert result.expansion_factor > 1.1


def check_sensitivity(result):
    """Hostname errors degrade what the regexes deliver -- convention
    PPV falls with staleness -- while the topological reasonableness
    test keeps wrongly-used extractions a small minority of decisions
    at every level (section 6)."""
    rows = result.rows
    assert len(rows) == 3

    # Training-side damage: usable-NC PPV degrades as staleness rises.
    assert rows[0].usable_ppv > rows[-1].usable_ppv

    # The feedback loop still helps at every staleness level...
    for row in rows:
        assert row.agreement_after >= row.agreement_before

    # ...and the topology test keeps wrong usage bounded.
    for row in rows:
        if row.decisions >= 10:
            assert row.decision_rate > 0.6
            assert row.wrongly_used <= row.decisions * 0.35


def check_table1(result):
    """Operators that label the *neighbor* ASN most often place it at
    the start of the hostname (50.8% of usable NCs in the paper), and
    the placement classes are all represented."""
    assert result.n_usable > 0
    shares = {taxonomy: result.usable[taxonomy] / result.n_usable
              for taxonomy in Taxonomy}

    # Start placement is the most common single class among
    # neighbor-labelling styles (paper: 50.8%).
    non_complex = {t: shares[t] for t in
                   (Taxonomy.SIMPLE, Taxonomy.START, Taxonomy.END,
                    Taxonomy.BARE)}
    assert max(non_complex, key=non_complex.get) in (Taxonomy.START,
                                                     Taxonomy.SIMPLE)
    assert shares[Taxonomy.START] >= shares[Taxonomy.BARE]

    # All placement classes occur somewhere in a full run.
    observed = sum(1 for t in Taxonomy if result.usable[t] > 0)
    assert observed >= 4


def check_table2(result):
    """The modified bdrmapIT decides correctly for around nine in ten
    incongruent hostnames (92.5% in the paper), using most correct
    hostnames while rejecting most incorrect ones."""
    totals = result.totals()
    assert totals.total >= 10, "too few validated decisions to assess"

    correct_rate = totals.correct_decisions / totals.total
    # Paper: 92.5%.  Small validation samples (a few dozen decisions)
    # carry binomial noise, so the floor scales with sample size.
    assert correct_rate > (0.80 if totals.total >= 30 else 0.65)

    correct_hostnames = totals.tp + totals.fn
    if correct_hostnames >= 10:
        used_correct = totals.tp / correct_hostnames
        assert used_correct > 0.75     # paper: 92.7%
    incorrect_hostnames = totals.fp + totals.tn
    if incorrect_hostnames >= 10:
        used_incorrect = totals.fp / incorrect_hostnames
        assert used_incorrect < 0.5    # paper: 8.4%


#: One shape check per experiment, keyed by its ``all`` name.
CHECKS = {
    "ablation": check_ablation,
    "appendix-a": check_appendix_a,
    "figure5": check_figure5,
    "figure6": check_figure6,
    "section5": check_section5,
    "section7": check_section7,
    "sensitivity": check_sensitivity,
    "table1": check_table1,
    "table2": check_table2,
}


class Quality(NamedTuple):
    """How many conventions a mode learned, and how many of the
    inferences it checked against ground truth were right."""

    conventions: int
    checked: int
    correct: int

    @property
    def rate(self) -> float:
        return self.correct / self.checked if self.checked else 0.0


def routername_quality(context) -> Quality:
    """The Hoiho-2019 router-name mode on the latest ITDK: alias pairs
    proposed (``checked``) and those on one true router (``correct``)."""
    snapshot_result = context.latest_itdk().snapshot
    assert snapshot_result is not None
    resolution = snapshot_result.snapshot.resolution

    items = []
    hostname_router = {}
    for address, hostname in snapshot_result.snapshot.named_addresses():
        node_id = resolution.node_of_address.get(address)
        if node_id is None:
            continue
        items.append(RouterItem(hostname, node_id))
        hostname_router[hostname.lower()] = node_id

    conventions = learn_router_names(items)
    proposed = correct = 0
    for convention in conventions.values():
        in_suffix = [h for h in hostname_router
                     if h.endswith("." + convention.suffix)]
        for group in convention.aliases(in_suffix):
            members = sorted(group)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    proposed += 1
                    if hostname_router[a] == hostname_router[b]:
                        correct += 1
    return Quality(len(conventions), proposed, correct)


def check_routername(quality: Quality):
    """The alias sets the router-name mode proposes are precise -- the
    property that made the 2019 system useful (section 2.2)."""
    assert quality.conventions >= 3
    assert quality.checked >= 20
    # Hoiho-2019 reported high-confidence alias inferences; the
    # synthetic reproduction should be similarly precise.
    assert quality.rate > 0.85


def geohint_quality(context) -> Quality:
    """The DRoP-style location-hint learner on the latest ITDK:
    hostnames located (``checked``) and those at their router's true
    location (``correct``)."""
    snapshot_result = context.latest_itdk().snapshot
    assert snapshot_result is not None
    world = context.world

    conventions = learn_geo_conventions(
        snapshot_result.snapshot.hostnames, snapshot_result.traces)
    checked = correct = 0
    for address, hostname in snapshot_result.snapshot.named_addresses():
        iface = world.topology.interfaces_by_address.get(address)
        if iface is None:
            continue
        for suffix, convention in conventions.items():
            if hostname.endswith("." + suffix):
                located = convention.locate(hostname)
                if located is not None:
                    checked += 1
                    correct += located == iface.router.loc
                break
    return Quality(len(conventions), checked, correct)


def check_geohint(quality: Quality):
    """Hints that survive DRoP's RTT feasibility constraints identify
    the router's true location almost always."""
    assert quality.conventions >= 5
    assert quality.checked >= 50
    assert quality.rate > 0.9


@pytest.fixture(scope="module")
def run(experiment_runs):
    return experiment_runs(SEED, SCALE)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CHECKS))
def test_experiment_shape(run, name):
    CHECKS[name](run.results[name])


@pytest.mark.slow
def test_routername_alias_precision(run):
    check_routername(routername_quality(run.context))


@pytest.mark.slow
def test_geohint_accuracy(run):
    check_geohint(geohint_quality(run.context))


def test_every_experiment_has_a_check():
    assert sorted(CHECKS) == sorted(_EXPERIMENTS)


def _ablation() -> AblationResult:
    """An ablation with the shape the paper reports."""
    learner = [AblationRow("full", usable=16, good=9, total_atp=72),
               AblationRow("phase 1 only", usable=12, good=6, total_atp=60),
               AblationRow("no regex sets (phase 4)", usable=15, good=8,
                           total_atp=70)]
    accuracies = [("full", 0.93), ("no subsequent votes", 0.92),
                  ("no link-mate rule", 0.97),
                  ("no relationship election", 0.92),
                  ("no destination heuristic", 0.93),
                  ("election only", 0.85)]
    return AblationResult(learner, [AblationRow(name, accuracy=accuracy)
                                    for name, accuracy in accuracies])


def test_ablation_check_rejects_swapped_rows():
    result = _ablation()
    check_ablation(result)
    rows = {row.name: row for row in result.bdrmapit_rows}
    rows["full"].name, rows["election only"].name = "election only", "full"
    with pytest.raises(AssertionError, match="beat election only"):
        check_ablation(result)


def _figure6() -> Figure6Result:
    """Two rows per method, with the PPV order the paper reports."""
    rows = []
    for method, ppv in (("rtaa", 0.78), ("bdrmapit", 0.85),
                        ("operator", 0.96)):
        for year in (2016.0, 2020.0):
            tp = round(1000 * ppv)
            rows.append(Figure6Row(label="%s-%d" % (method, year),
                                   kind="itdk", method=method, year=year,
                                   tp=tp, fp=1000 - tp, sibling_fp=10))
    return Figure6Result(rows)


def test_figure6_check_rejects_swapped_order():
    result = _figure6()
    check_figure6(result)
    swap = {"bdrmapit": "operator", "operator": "bdrmapit"}
    for row in result.rows:
        row.method = swap.get(row.method, row.method)
    with pytest.raises(AssertionError, match="PeeringDB > bdrmapIT"):
        check_figure6(result)
