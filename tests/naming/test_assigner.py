"""Unit tests for hostname assignment and hazard injection."""

import pytest

from repro.naming.assigner import (
    NamingConfig,
    _HazardInjector,
    assign_hostnames,
    host_hostname,
)
from repro.naming.conventions import EmbedKind
from repro.topology.routers import InterfaceKind
from repro.topology.world import WorldConfig, generate_world
from repro.util.strings import damerau_levenshtein


@pytest.fixture(scope="module")
def world():
    return generate_world(42, WorldConfig.tiny())


@pytest.fixture(scope="module")
def outcome(world):
    return assign_hostnames(world, 7, NamingConfig(year=2020.0))


class TestAssignment:
    def test_hostnames_end_with_namer_domain(self, world, outcome):
        for record in outcome.records.values():
            assert record.hostname.endswith(record.domain)

    def test_hostname_charset(self, outcome):
        for record in outcome.records.values():
            assert all(c.isalnum() or c in ".-_"
                       for c in record.hostname), record.hostname

    def test_far_side_embeds_router_owner(self, world, outcome):
        """Neighbor-ASN conventions describe the router's operator."""
        for record in outcome.records.values():
            if record.embed is not EmbedKind.NEIGHBOR_ASN:
                continue
            if record.subject_asn is None:
                continue
            iface = world.topology.interfaces_by_address[record.address]
            if iface.kind is InterfaceKind.P2P \
                    and iface.router.asn != iface.supplier_asn:
                assert record.subject_asn == iface.router.asn

    def test_supplier_is_namer_for_p2p(self, world, outcome):
        for record in outcome.records.values():
            iface = world.topology.interfaces_by_address.get(record.address)
            if iface is None or iface.kind is InterfaceKind.IXP_LAN:
                continue
            assert record.namer_asn == iface.supplier_asn

    def test_ixp_lan_named_under_ixp_domain(self, world, outcome):
        ixp_domains = {ixp.domain for ixp in world.graph.ixps}
        for record in outcome.records.values():
            iface = world.topology.interfaces_by_address.get(record.address)
            if iface is not None and iface.kind is InterfaceKind.IXP_LAN:
                assert record.domain in ixp_domains

    def test_embedded_text_appears_in_hostname(self, outcome):
        for record in outcome.records.values():
            if record.embedded_text:
                assert record.embedded_text in record.hostname

    def test_correct_flag(self, outcome):
        for record in outcome.records.values():
            if record.embedded_text is None:
                assert record.correct is None
            elif record.correct:
                assert str(record.subject_asn) == record.embedded_text

    def test_determinism(self, world):
        a = assign_hostnames(world, 7, NamingConfig(year=2020.0))
        b = assign_hostnames(world, 7, NamingConfig(year=2020.0))
        assert {k: v.hostname for k, v in a.records.items()} == \
            {k: v.hostname for k, v in b.records.items()}

    def test_year_gates_adoption(self, world):
        early = assign_hostnames(world, 7, NamingConfig(year=2004.0))
        late = assign_hostnames(world, 7, NamingConfig(year=2020.0))
        def count_asn(outcome):
            return sum(1 for r in outcome.records.values()
                       if r.embedded_text is not None
                       and r.embed is EmbedKind.NEIGHBOR_ASN)
        assert count_asn(early) < count_asn(late)


class TestHazards:
    def test_rates_roughly_respected(self, world):
        config = NamingConfig(year=2020.0, stale_rate=0.3, typo_rate=0.0,
                              sibling_embed_rate=0.0,
                              sloppy_operator_rate=0.0)
        outcome = assign_hostnames(world, 7, config)
        embedded = [r for r in outcome.records.values()
                    if r.embedded_text is not None
                    and r.namer_asn >= 0
                    and r.embed is EmbedKind.NEIGHBOR_ASN]
        stale = sum(1 for r in embedded if r.stale)
        assert embedded
        share = stale / len(embedded)
        assert 0.15 < share < 0.45

    def test_typo_is_single_edit(self, world):
        injector = _HazardInjector(world, NamingConfig(), 3)
        for asn in (64500, 3356, 213000):
            text = injector._typo(str(asn), injector._rng)
            assert damerau_levenshtein(text, str(asn)) <= 2

    def test_unrescuable_typos_damage_the_first_digit(self, world):
        injector = _HazardInjector(world, NamingConfig(typo_rescuable=0.0),
                                   3)
        for asn in (174, 3356, 64500, 213000) * 25:
            text = str(asn)
            typo = injector._typo(text, injector._rng)
            assert typo[0] != text[0] and typo[1:] == text[1:], (text, typo)

    def test_rescuable_typos_keep_first_and_last_digits(self, world):
        injector = _HazardInjector(world, NamingConfig(typo_rescuable=1.0),
                                   3)
        for asn in (3356, 64500, 213000, 4200000000) * 25:
            text = str(asn)
            typo = injector._typo(text, injector._rng)
            assert typo != text and len(typo) == len(text), (text, typo)
            assert (typo[0], typo[-1]) == (text[0], text[-1]), (text, typo)

    def test_stale_differs_from_subject(self, world):
        injector = _HazardInjector(world, NamingConfig(), 3)
        namer = world.graph.asns()[0]
        for subject in world.graph.asns()[:10]:
            stale = injector._stale_asn(namer, subject, injector._rng)
            assert stale != subject

    def test_ixp_stale_rate_lower(self, world):
        config = NamingConfig()
        injector = _HazardInjector(world, config, 3)
        assert injector.stale_rate_for(-1) == config.ixp_stale_rate
        assert injector.stale_rate_for(world.graph.asns()[0]) in (
            config.stale_rate, config.sloppy_stale_rate)


class TestHostHostname:
    def test_ip_derived_host_names(self, world, outcome):
        # Find an AS with an IP-derived profile; a host address inside
        # its space should get a PTR.
        target = None
        for asn, profile in outcome.profiles.items():
            if profile.embed is EmbedKind.IP_DERIVED:
                target = asn
                break
        if target is None:
            pytest.skip("no IP-derived operator in this tiny world")
        prefix = world.plan.edge_prefixes(target)[0]
        record = host_hostname(world, prefix.host(9), outcome, 7)
        assert record is not None
        assert record.hostname.endswith(outcome.profiles[target].domain)

    def test_non_ip_operator_host_has_no_ptr(self, world, outcome):
        for asn, profile in outcome.profiles.items():
            if profile.embed is not EmbedKind.IP_DERIVED:
                prefix = world.plan.edge_prefixes(asn)[0]
                address = prefix.host(9)
                if address in outcome.records:
                    continue
                assert host_hostname(world, address, outcome, 7) is None
                break

    def test_unrouted_host(self, world, outcome):
        from repro.util.ipaddr import ip_to_int
        assert host_hostname(world, ip_to_int("203.0.113.9"),
                             outcome, 7) is None
