"""The label-walk PSL lookup against a brute-force linear scan.

:func:`scan_public_suffix` and :func:`scan_registered_domain` are the
reference: they compare the hostname with every rule, one label at a
time, and apply the list's precedence rules to whatever matched.  The
label walk in :class:`repro.psl.PublicSuffixList` must agree with them
on every rule set and hostname hypothesis draws.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.psl import PublicSuffixList

# A small alphabet so rules and hostnames overlap often.
RULE_LABELS = ["a", "b", "c", "co", "*"]
HOST_LABELS = ["a", "b", "c", "co", "x", "A", "Co", "", "*"]


def _scan_width(rules, labels):
    """Suffix width for reversed ``labels``, scanning every rule."""
    matches = [(rule, exception) for rule, exception in rules.items()
               if len(rule) <= len(labels)
               and all(r == "*" or r == lab for r, lab in zip(rule, labels))]
    exceptions = [rule for rule, exception in matches if exception]
    if exceptions:
        width = max(len(rule) for rule in exceptions) - 1
    elif matches:
        width = max(len(rule) for rule, _ in matches)
    else:
        width = 1
    return min(width, len(labels))


def scan_public_suffix(psl, hostname):
    hostname = hostname.strip(".").lower()
    if not hostname:
        return None
    labels = list(reversed(hostname.split(".")))
    width = _scan_width(psl._rules, labels)
    return ".".join(reversed(labels[:width]))


def scan_registered_domain(psl, hostname):
    hostname = hostname.strip(".").lower()
    suffix = scan_public_suffix(psl, hostname)
    if suffix is None:
        return None
    labels = hostname.split(".")
    suffix_width = suffix.count(".") + 1
    if len(labels) <= suffix_width:
        return None
    return ".".join(labels[-(suffix_width + 1):])


def assert_agrees(psl, hostname):
    assert psl.public_suffix(hostname) == scan_public_suffix(psl, hostname)
    assert psl.registered_domain(hostname) == \
        scan_registered_domain(psl, hostname)


@st.composite
def rule_sets(draw):
    """PSL rule lines: ``*`` at any depth, nested rules, and exceptions
    both under a matching wildcard and with none."""
    rules = draw(st.lists(
        st.lists(st.sampled_from(RULE_LABELS), min_size=1, max_size=4),
        min_size=0, max_size=12))
    lines = [".".join(labels) for labels in rules]
    for labels in rules:
        if "*" in labels and draw(st.booleans()):
            # An exception the wildcard matches.
            concrete = [draw(st.sampled_from(["a", "b", "x"]))
                        if label == "*" else label for label in labels]
            lines.append("!" + ".".join(concrete))
    lines.extend("!" + ".".join(labels) for labels in draw(st.lists(
        st.lists(st.sampled_from(RULE_LABELS[:-1]), min_size=1,
                 max_size=3), max_size=3)))
    if draw(st.booleans()):
        lines = [line.upper() for line in lines]
    return lines


@st.composite
def hostnames(draw, rules):
    """Hostnames with trailing dots, upper case and empty labels, plus
    bare and lightly extended rule suffixes."""
    if rules and draw(st.booleans()):
        rule = draw(st.sampled_from(rules)).lstrip("!")
        labels = [draw(st.sampled_from(HOST_LABELS)) if label == "*"
                  else label for label in rule.split(".")]
        labels = draw(st.lists(st.sampled_from(HOST_LABELS),
                               max_size=2)) + labels
    else:
        labels = draw(st.lists(st.sampled_from(HOST_LABELS), max_size=6))
    hostname = ".".join(labels)
    if draw(st.booleans()):
        hostname += "."
    return hostname


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_label_walk_matches_linear_scan(data):
    lines = data.draw(rule_sets())
    psl = PublicSuffixList(lines)
    for _ in range(8):
        assert_agrees(psl, data.draw(hostnames(lines)))


def _synthetic_lines():
    """~10k rules in the shape of the real list: TLDs, second and
    third levels, wildcards, and exceptions under them."""
    lines = []
    for tld in range(100):
        lines.append("t%d" % tld)
        for sld in range(90):
            lines.append("s%d.t%d" % (sld, tld))
            if sld % 30 == 0:
                lines.append("*.s%d.t%d" % (sld, tld))
                lines.append("!e%d.s%d.t%d" % (tld, sld, tld))
        lines.append("*.w%d" % tld)
    return lines


SYNTHETIC = PublicSuffixList(_synthetic_lines())


def test_synthetic_list_size():
    assert len(SYNTHETIC) > 9_500


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(
    ["t0", "t7", "t99", "s0", "s30", "s45", "s89", "w7", "e7", "e0",
     "x", "T7", ""]), max_size=6), st.booleans())
def test_synthetic_list_matches_linear_scan(labels, trailing):
    assert_agrees(SYNTHETIC, ".".join(labels) + ("." if trailing else ""))


def test_synthetic_list_examples():
    assert SYNTHETIC.public_suffix("host.s3.t7") == "s3.t7"
    assert SYNTHETIC.public_suffix("a.b.s30.t7") == "b.s30.t7"
    assert SYNTHETIC.public_suffix("a.e7.s30.t7") == "s30.t7"
    assert SYNTHETIC.registered_domain("a.e7.s30.t7") == "e7.s30.t7"
    assert SYNTHETIC.registered_domain("x.y.w7") == "x.y.w7"
    assert SYNTHETIC.registered_domain("y.w7") is None
