"""Public suffix list support.

Hoiho groups hostnames by the operator-registerable suffix (section 3 of
the paper), determined with the Mozilla public suffix list.  This package
provides a parser for PSL-format rule files (including wildcard ``*.`` and
exception ``!`` rules), an embedded snapshot of the rules the synthetic
world and tests need, and registered-domain extraction.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.psl.psl": ("PublicSuffixList", "default_psl"),
})
