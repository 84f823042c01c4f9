"""The per-world naming plan against the per-interface assigner it replaced.

:func:`reference_assign` keeps the assigner as it was before
:class:`~repro.naming.assigner.NamingPlan`: every snapshot re-derives
the profiles, the IXP modes, each interface's namer and router fields
and each far-side AS-name token, and renders interface by interface.
It shares only what the plan did not restructure: the hazard injector,
the label renderers and the profile draws.  For every config below,
``NamingPlan.assign`` must give the same records (values and insertion
order), profiles, IXP modes and pickled outcome, and leave the world's
pickled bytes as they were, and one plan reused across snapshots must
give what a fresh plan per snapshot gives.
"""

import pickle

import pytest

from repro.naming.asnames import as_name_tokens
from repro.naming.assigner import (
    HostnameRecord,
    NamingConfig,
    NamingOutcome,
    NamingPlan,
    _HazardInjector,
    _wrong_loc,
)
from repro.naming.conventions import (
    EmbedKind,
    IXPNamingMode,
    asname_label,
    geo_label,
    ip_label,
    ixp_mode_for,
    member_ixp_label,
    neighbor_label,
    operator_ixp_label,
    own_decor_label,
    plain_label,
    profile_for_as,
)
from repro.pipeline import SnapshotSpec, run_snapshot
from repro.topology.routers import InterfaceKind
from repro.topology.world import WorldConfig, generate_world
from repro.util.rand import substream

#: TINY worlds whose near-side hazard fires with a style that shows
#: the label's unit.
WORLD_SEEDS = (2020, 7)
SEEDS = (3, 7, 90210)

CONFIGS = {
    "default": NamingConfig(),
    "misloc-1": NamingConfig(misloc_rate=1.0),
    "no-near-side": NamingConfig(near_side_hazard=False),
    "sloppy-0": NamingConfig(sloppy_operator_rate=0.0),
    "sloppy-1": NamingConfig(sloppy_operator_rate=1.0),
    "typo-1": NamingConfig(typo_rate=1.0),
    "year-2005": NamingConfig(year=2005.0),
    "year-2020": NamingConfig(year=2020.0),
}


def reference_assign(world, seed, config):
    """Hostnames for every interface, one interface at a time."""
    outcome = NamingOutcome(config=config)
    hazards = _HazardInjector(world, config, seed)
    rng = substream(seed, "labels")
    for asn in world.graph.asns():
        outcome.profiles[asn] = profile_for_as(world.seed, world.node(asn))
    for ixp in world.graph.ixps:
        outcome.ixp_modes[ixp.ixp_id] = ixp_mode_for(world.seed, ixp)
    for router in world.routers():
        for iface in router.interfaces:
            record = _reference_interface(world, iface, outcome, hazards,
                                          config, rng)
            if record is not None:
                outcome.records[iface.address] = record
    return outcome


def _reference_interface(world, iface, outcome, hazards, config, rng):
    router = iface.router
    if iface.kind is InterfaceKind.IXP_LAN:
        return _reference_ixp_interface(world, iface, outcome, hazards)

    namer_asn = iface.supplier_asn
    profile = outcome.profiles[namer_asn]
    far_side = iface.kind is InterfaceKind.P2P and router.asn != namer_asn
    loc = router.loc
    if rng.random() < config.misloc_rate:
        loc = _wrong_loc(loc, rng)

    if profile.embed is EmbedKind.NONE:
        return None
    if profile.embed is EmbedKind.IP_DERIVED:
        label = ip_label(iface.ip, rng)
        return _reference_record(iface, label, profile, None, None)
    if profile.embed is EmbedKind.OWN_DECOR:
        cust_slug = world.node(router.asn).slug[:3] if far_side else None
        label = own_decor_label(profile, namer_asn, loc, router.name,
                                iface.port, cust_slug, router.index)
        return _reference_record(iface, label, profile, namer_asn,
                                 str(namer_asn))
    if profile.embed is EmbedKind.NAME:
        if far_side:
            slug = world.node(router.asn).slug
            token_rng = substream(world.seed, "asname", namer_asn,
                                  router.asn)
            token = token_rng.choice(as_name_tokens(slug))
            label = asname_label(slug, loc, router.index, rng, token=token)
        else:
            label = plain_label(loc, router.name, iface.port, rng.random())
        return _reference_record(iface, label, profile, None, None)
    if profile.embed is EmbedKind.GEO:
        label = geo_label(loc, router.name, iface.port, router.index)
        return _reference_record(iface, label, profile, None, None)

    adopted = profile.embeds_asn_in(config.year)
    if far_side and adopted:
        subject = router.asn
        text, stale, typo, sibling = hazards.apply(subject, namer_asn)
        label = neighbor_label(profile, text, loc, iface.port,
                               router.index, rng)
        return _reference_record(iface, label, profile, subject, text,
                                 stale, typo, sibling)
    if (iface.kind is InterfaceKind.P2P and not far_side and adopted
            and profile.names_near_side and config.near_side_hazard
            and iface.neighbor_asn is not None and rng.random() < 0.5):
        subject = iface.neighbor_asn
        text, stale, typo, sibling = hazards.apply(subject, namer_asn)
        label = neighbor_label(profile, text, loc, iface.port,
                               router.index + 2, rng)
        return _reference_record(iface, label, profile, subject, text,
                                 stale, typo, sibling)
    label = plain_label(loc, router.name, iface.port, rng.random())
    return _reference_record(iface, label, profile, None, None)


def _reference_ixp_interface(world, iface, outcome, hazards):
    ixp = world.graph.ixps[iface.ixp_id]
    mode = outcome.ixp_modes[ixp.ixp_id]
    if mode is IXPNamingMode.NONE:
        return None
    member = iface.router.asn
    text, stale, typo, sibling = hazards.apply(member, -ixp.ixp_id - 1)
    metro = ixp.slug.split("-")[0]
    if mode is IXPNamingMode.MEMBER:
        label = member_ixp_label(world.node(member).slug, text, member % 3)
    else:
        label = operator_ixp_label(mode, text, metro, iface.router.index)
    return HostnameRecord(
        address=iface.address, hostname="%s.%s" % (label, ixp.domain),
        namer_asn=-ixp.ixp_id - 1, domain=ixp.domain, subject_asn=member,
        embedded_text=text, stale=stale, typo=typo, sibling=sibling,
        embed=EmbedKind.NEIGHBOR_ASN, style=None)


def _reference_record(iface, label, profile, subject, embedded,
                      stale=False, typo=False, sibling=False):
    return HostnameRecord(
        address=iface.address, hostname="%s.%s" % (label, profile.domain),
        namer_asn=profile.asn, domain=profile.domain, subject_asn=subject,
        embedded_text=embedded, stale=stale, typo=typo, sibling=sibling,
        embed=profile.embed,
        style=profile.style if profile.embed is EmbedKind.NEIGHBOR_ASN
        else None)


@pytest.fixture(scope="module", params=WORLD_SEEDS)
def world(request):
    return generate_world(request.param, WorldConfig.tiny())


@pytest.fixture(scope="module")
def plan(world):
    return NamingPlan(world)


def _named(world, assign):
    """Run ``assign()`` and return its outcome, checking that it leaves
    ``world``'s pickled bytes unchanged."""
    before = pickle.dumps(world)
    outcome = assign()
    assert pickle.dumps(world) == before
    return outcome


def assert_same_outcome(got, want):
    assert list(got.records.items()) == list(want.records.items())
    assert list(got.profiles.items()) == list(want.profiles.items())
    assert list(got.ixp_modes.items()) == list(want.ixp_modes.items())
    assert got.config == want.config
    assert pickle.dumps(got) == pickle.dumps(want)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_plan_matches_reference(world, plan, seed, name):
    config = CONFIGS[name]
    want = _named(world, lambda: reference_assign(world, seed, config))
    got = _named(world, lambda: plan.assign(seed, config))
    assert_same_outcome(got, want)


def test_configs_exercise_every_hazard(world, plan):
    """The configs reach the code paths they are chosen for."""
    records = [record for name in ("misloc-1", "typo-1", "sloppy-1")
               for record in plan.assign(7, CONFIGS[name]).records.values()]
    assert any(record.typo for record in records)
    assert any(record.stale for record in records)
    assert any(record.sibling for record in records)
    early = plan.assign(7, CONFIGS["year-2005"]).records.values()
    late = plan.assign(7, CONFIGS["year-2020"]).records.values()
    assert sum(r.subject_asn is not None for r in early) \
        < sum(r.subject_asn is not None for r in late)


def test_reused_plan_matches_fresh_plans(world, plan):
    for seed in SEEDS:
        for name in ("default", "year-2005", "misloc-1"):
            config = CONFIGS[name]
            fresh = _named(
                world, lambda: NamingPlan(world).assign(seed, config))
            reused = _named(world, lambda: plan.assign(seed, config))
            assert_same_outcome(reused, fresh)


def test_outcome_does_not_share_the_plans_tables(plan):
    outcome = plan.assign(7)
    assert outcome.profiles == plan.profiles
    assert outcome.profiles is not plan.profiles
    assert outcome.ixp_modes is not plan.ixp_modes


def test_plan_of_another_world_is_refused(world, plan):
    other = generate_world(2021, WorldConfig.tiny())
    with pytest.raises(ValueError, match="another world"):
        run_snapshot(other, SnapshotSpec(label="x"), naming_plan=plan)
