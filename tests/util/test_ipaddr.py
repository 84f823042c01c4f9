"""Unit tests for repro.util.ipaddr."""

import pytest

from repro.util.ipaddr import (
    IPv4Prefix,
    embedded_ip_spans,
    int_to_ip,
    ip_to_int,
)


class TestIpConversion:
    def test_round_trip(self):
        for text in ("0.0.0.0", "10.0.0.1", "255.255.255.255", "4.68.0.17"):
            assert int_to_ip(ip_to_int(text)) == text

    def test_known_value(self):
        assert ip_to_int("10.0.0.1") == (10 << 24) + 1

    def test_bad_octet(self):
        with pytest.raises(ValueError):
            ip_to_int("10.0.0.256")

    def test_not_a_quad(self):
        with pytest.raises(ValueError):
            ip_to_int("10.0.0")
        with pytest.raises(ValueError):
            ip_to_int("10.0.0.0.1")

    def test_non_numeric(self):
        with pytest.raises(ValueError):
            ip_to_int("a.b.c.d")

    def test_int_to_ip_range(self):
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(1 << 32)


class TestIPv4Prefix:
    def test_parse_and_str(self):
        prefix = IPv4Prefix.parse("10.1.0.0/16")
        assert str(prefix) == "10.1.0.0/16"
        assert prefix.length == 16
        assert prefix.size == 65536

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            IPv4Prefix.parse("10.1.0.1/16")

    def test_missing_length(self):
        with pytest.raises(ValueError):
            IPv4Prefix.parse("10.1.0.0")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            IPv4Prefix(0, 33)

    def test_contains(self):
        prefix = IPv4Prefix.parse("10.1.0.0/16")
        assert prefix.contains(ip_to_int("10.1.2.3"))
        assert not prefix.contains(ip_to_int("10.2.0.0"))

    def test_contains_prefix(self):
        outer = IPv4Prefix.parse("10.0.0.0/8")
        inner = IPv4Prefix.parse("10.1.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_subnets(self):
        prefix = IPv4Prefix.parse("10.0.0.0/30")
        subs = list(prefix.subnets(31))
        assert [str(s) for s in subs] == ["10.0.0.0/31", "10.0.0.2/31"]

    def test_subnets_cannot_widen(self):
        with pytest.raises(ValueError):
            list(IPv4Prefix.parse("10.0.0.0/24").subnets(16))

    def test_host(self):
        prefix = IPv4Prefix.parse("10.0.0.0/31")
        assert int_to_ip(prefix.host(0)) == "10.0.0.0"
        assert int_to_ip(prefix.host(1)) == "10.0.0.1"
        with pytest.raises(ValueError):
            prefix.host(2)

    def test_zero_length_prefix(self):
        default = IPv4Prefix(0, 0)
        assert default.contains(ip_to_int("192.0.2.1"))
        assert default.mask == 0

    def test_addresses_iterates_all(self):
        prefix = IPv4Prefix.parse("10.0.0.4/30")
        assert len(list(prefix.addresses())) == 4

    def test_ordering(self):
        a = IPv4Prefix.parse("10.0.0.0/8")
        b = IPv4Prefix.parse("11.0.0.0/8")
        assert a < b


class TestEmbeddedIpSpans:
    def test_dashed_quad(self):
        spans = embedded_ip_spans("209-201-58-109.dia.example.net")
        assert spans == ((0, 14),)

    def test_dotted_quad_prefix(self):
        # Figure 3b: 50-236-216-122-static style.
        spans = embedded_ip_spans(
            "50-236-216-122-static.hfc.example.net")
        assert spans and spans[0][0] == 0

    def test_no_ip(self):
        assert embedded_ip_spans("p24115.mel.equinix.com") == ()

    def test_needs_four_octets(self):
        assert embedded_ip_spans("10-20-30.example.net") == ()

    def test_octet_range_check(self):
        # 300 is not a valid octet, so no span.
        assert embedded_ip_spans("300-20-30-40.example.net") == ()

    def test_mixed_separators_rejected(self):
        assert embedded_ip_spans("10-20.30-40.example.net") == ()

    def test_known_address_concatenated(self):
        spans = embedded_ip_spans("host050236216122.example.net",
                                  address="50.236.216.122")
        assert spans == ((4, 16),)

    def test_known_address_reversed(self):
        spans = embedded_ip_spans("122-216-236-50.rev.example.net",
                                  address="50.236.216.122")
        assert spans and spans[0] == (0, 14)

    def test_spans_merge(self):
        # Two detections of the same region collapse to one span.
        spans = embedded_ip_spans("1-2-3-4.example.net", address="1.2.3.4")
        assert spans == ((0, 7),)

    def test_centurylink_example(self):
        # The exact hostname from figure 3b.
        spans = embedded_ip_spans("209-201-58-109.dia.stat.centurylink.net")
        assert spans == ((0, 14),)

    def test_non_decimal_digit_ends_a_run(self):
        # "²" is str.isdigit() but not a decimal digit: it separates
        # the runs "1" and "3" instead of joining them into "1²3".
        spans = embedded_ip_spans("1²3-4-5-6.example.com", "1.2.3.4")
        assert spans == ((2, 9),)

    @pytest.mark.parametrize("address", [
        "1.2.x.4", "1.2.3.256", "1.2.3", "1.2.3.4.5", "1..3.4", "1.2.².4",
        " 1.2.3.4", ""])
    def test_malformed_address_is_unknown(self, address):
        for hostname in ("1-2-3-4.example.com", "h001002003004.example.com",
                         "4-3-2-1.example.com"):
            assert (embedded_ip_spans(hostname, address)
                    == embedded_ip_spans(hostname, None)), hostname

    def test_memoised_result_is_shared_tuple(self):
        spans = embedded_ip_spans("10-0-0-1.example.net", "10.0.0.1")
        assert isinstance(spans, tuple)
        assert embedded_ip_spans("10-0-0-1.example.net", "10.0.0.1") is spans
