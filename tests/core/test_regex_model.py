"""Unit tests for the structured regex AST."""

from repro.core.regex_model import (
    Alt,
    Any_,
    Cap,
    CLASS_ALPHA,
    CLASS_DIGIT,
    ClassSeq,
    Exclude,
    Lit,
    Regex,
    instrumented_pattern,
)


class TestElements:
    def test_literal_escaping(self):
        assert Lit("a.b").render() == "a\\.b"
        assert Lit("a-b").render() == "a-b"      # '-' stays bare
        assert Lit("a+b").render() == "a\\+b"

    def test_lit_flags(self):
        assert Lit("as").is_simple
        assert not Lit(".").is_simple
        assert Lit(".").is_punct
        assert not Lit("as").is_punct
        assert not Lit("").is_punct

    def test_cap(self):
        assert Cap().render() == "(\\d+)"

    def test_exclude(self):
        assert Exclude(frozenset(".")).render() == "[^\\.]+"
        assert Exclude(frozenset("-")).render() == "[^\\-]+"

    def test_class_seq(self):
        assert ClassSeq(frozenset([CLASS_ALPHA])).render() == "[a-z]+"
        assert ClassSeq(frozenset([CLASS_DIGIT])).render() == "\\d+"
        assert ClassSeq(
            frozenset([CLASS_ALPHA, CLASS_DIGIT])).render() == "[a-z\\d]+"

    def test_class_seq_hyphen_last(self):
        rendered = ClassSeq(
            frozenset([CLASS_ALPHA, "-"])).render()
        assert rendered == "[a-z-]+"

    def test_alt(self):
        assert Alt(("p", "s")).render() == "(?:p|s)"
        assert Alt(("p", "s"), optional=True).render() == "(?:p|s)?"

    def test_any(self):
        assert Any_().render() == ".+"

    def test_element_equality(self):
        assert Lit("as") == Lit("as")
        assert Lit("as") != Lit("asn")
        assert Exclude(frozenset(".")) == Exclude(frozenset("."))
        assert Cap() == Cap()
        assert hash(Lit("x")) == hash(Lit("x"))


class TestRegex:
    def test_paper_pattern(self):
        regex = Regex([Alt(("p", "s"), optional=True), Cap(), Lit("."),
                       ClassSeq(frozenset([CLASS_ALPHA, CLASS_DIGIT]))],
                      suffix="equinix.com")
        assert regex.pattern == \
            "^(?:p|s)?(\\d+)\\.[a-z\\d]+\\.equinix\\.com$"

    def test_extract(self):
        regex = Regex([Lit("as"), Cap()], suffix="example.com")
        assert regex.extract("as64500.example.com") == ("64500", (2, 7))
        assert regex.extract("foo.example.com") is None

    def test_extract_is_anchored(self):
        regex = Regex([Lit("as"), Cap()], suffix="example.com")
        assert regex.extract("xas64500.example.com") is None
        assert regex.extract("as64500.example.com.other") is None

    def test_equality_by_pattern(self):
        a = Regex([Lit("as"), Cap()], suffix="example.com")
        b = Regex([Lit("a"), Lit("s"), Cap()], suffix="example.com")
        assert a == b
        assert hash(a) == hash(b)

    def test_specificity_cost(self):
        tight = Regex([Lit("as"), Cap()], suffix="x.com")
        classy = Regex([Cap(), Lit("."),
                        ClassSeq(frozenset([CLASS_ALPHA]))], suffix="x.com")
        loose = Regex([Cap(), Lit("."), Any_()], suffix="x.com")
        excl = Regex([Cap(), Lit("."), Exclude(frozenset("."))],
                     suffix="x.com")
        assert tight.specificity_cost() == 0
        assert classy.specificity_cost() == 1
        assert excl.specificity_cost() == 2
        assert loose.specificity_cost() == 3

    def test_cap_index(self):
        regex = Regex([Lit("as"), Cap(), Lit("-"), Any_()], suffix="x.com")
        assert regex.cap_index() == 1

    def test_with_elements(self):
        regex = Regex([Lit("as"), Cap()], suffix="x.com")
        other = regex.with_elements([Lit("asn"), Cap()])
        assert other.pattern == "^asn(\\d+)\\.x\\.com$"
        assert other.suffix == "x.com"

    def test_raw(self):
        regex = Regex.raw(r"^as(\d+)\.example\.com$")
        assert regex.extract("as99.example.com") == ("99", (2, 4))
        assert regex.elements == ()


class TestInstrumentedPattern:
    def test_group_mapping(self):
        regex = Regex([Exclude(frozenset(".")), Lit("."), Lit("as"), Cap(),
                       Lit("-"), Any_()], suffix="x.com")
        compiled, groups = instrumented_pattern(regex)
        match = compiled.match("fra.as64500-blah.x.com")
        assert match is not None
        # Two variable (non-capture) elements: Exclude then Any_.
        assert len(groups) == 2
        assert match.group(groups[0]) == "fra"
        assert match.group(groups[1]) == "blah"
        # The ASN capture itself keeps its own group.
        assert "64500" in match.groups()

    def test_alt_does_not_shift_groups(self):
        regex = Regex([Alt(("p", "s"), optional=True), Cap(), Lit("."),
                       Exclude(frozenset("."))], suffix="x.com")
        compiled, groups = instrumented_pattern(regex)
        match = compiled.match("p714.sgw.x.com")
        assert match.group(groups[0]) == "sgw"
