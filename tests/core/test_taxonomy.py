"""Unit tests for the Table-1 taxonomy classifier."""

from repro.core.regex_model import (
    Alt,
    Any_,
    Cap,
    CLASS_ALPHA,
    CLASS_DIGIT,
    ClassSeq,
    Lit,
    Regex,
)
from repro.core.taxonomy import Taxonomy, taxonomy_of


def _alnum():
    return ClassSeq(frozenset([CLASS_ALPHA, CLASS_DIGIT]))


class TestTaxonomy:
    def test_simple(self):
        # ^as(\d+)\.example\.com$
        regex = Regex([Lit("as"), Cap()], "example.com")
        assert taxonomy_of([regex]) is Taxonomy.SIMPLE

    def test_start(self):
        # as(\d+)-[a-z]+... with decoration after.
        regex = Regex([Lit("as"), Cap(), Lit("-"), _alnum()], "example.com")
        assert taxonomy_of([regex]) is Taxonomy.START

    def test_end(self):
        regex = Regex([_alnum(), Lit("."), Lit("cust"), Lit("."),
                       Lit("as"), Cap()], "example.com")
        assert taxonomy_of([regex]) is Taxonomy.END

    def test_bare(self):
        regex = Regex([Cap(), Lit("."), _alnum()], "example.com")
        assert taxonomy_of([regex]) is Taxonomy.BARE

    def test_bare_with_digit_decoration(self):
        # The paper's bare example: (\d+)\.[a-z]+\d+\.example\.com
        regex = Regex([Cap(), Lit("."), ClassSeq(frozenset([CLASS_ALPHA])),
                       ClassSeq(frozenset([CLASS_DIGIT]))], "example.com")
        assert taxonomy_of([regex]) is Taxonomy.BARE

    def test_middle_is_complex(self):
        regex = Regex([_alnum(), Lit("-"), Lit("as"), Cap(), Lit("-"),
                       _alnum()], "example.com")
        assert taxonomy_of([regex]) is Taxonomy.COMPLEX

    def test_odd_annotation_is_complex(self):
        regex = Regex([Lit("asn"), Cap()], "example.com")
        assert taxonomy_of([regex]) is Taxonomy.COMPLEX
        regex = Regex([Lit("a"), Cap(), Lit("-"), _alnum()], "example.com")
        assert taxonomy_of([regex]) is Taxonomy.COMPLEX

    def test_multiple_regexes_complex(self):
        regexes = [Regex([Lit("as"), Cap()], "example.com"),
                   Regex([Cap(), Lit("-"), Any_()], "example.com")]
        assert taxonomy_of(regexes) is Taxonomy.COMPLEX

    def test_or_group_preface_is_complex(self):
        regex = Regex([Alt(("p", "s"), optional=True), Cap(), Lit("."),
                       _alnum()], "example.com")
        assert taxonomy_of([regex]) is Taxonomy.COMPLEX

    def test_end_with_suffix_after_capture_in_portion(self):
        # as(\d+)gw at the end portion still counts as END (preface as).
        regex = Regex([_alnum(), Lit("."), Lit("as"), Cap(), Lit("gw")],
                      "example.com")
        assert taxonomy_of([regex]) is Taxonomy.END
