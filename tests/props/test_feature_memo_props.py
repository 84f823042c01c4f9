"""Property tests: the memoised hostname features equal a fresh derivation.

:func:`~repro.util.strings.digit_runs`,
:func:`~repro.util.ipaddr.embedded_ip_spans` and
:func:`~repro.core.congruence.apparent_runs` are memoised process-wide.
This module keeps an unmemoised reference copy of the original
character-loop logic, with the two input rules the memoised versions
enforce: a digit run holds decimal digits only (``str.isdecimal``, what
a regex's ``\\d`` matches), and an interface address that is not four
decimal octets, each at most 255, is unknown.  Every input is asked
twice and the inputs are interleaved, so cache hits are compared as
well as misses.
"""

from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.congruence import apparent_runs, congruent
from repro.util.ipaddr import embedded_ip_spans
from repro.util.strings import digit_runs

# -- unmemoised reference ----------------------------------------------------


def ref_digit_runs(text: str) -> List[Tuple[int, int, str]]:
    runs = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            runs.append((i, j, text[i:j]))
            i = j
        else:
            i += 1
    return runs


def _ref_octets_ok(parts: List[str]) -> bool:
    return all(p.isdigit() and int(p) <= 255 and len(p) <= 3 for p in parts)


def _ref_ordered_octet_spans(hostname, octets):
    runs = ref_digit_runs(hostname)
    spans = []
    values = [int(o) for o in octets]
    for i in range(len(runs) - 3):
        window = runs[i:i + 4]
        if [int(text) for _, _, text in window] != values:
            continue
        ok = True
        for a, b in zip(window, window[1:]):
            sep = hostname[a[1]:b[0]]
            if len(sep) != 1 or sep.isalnum():
                ok = False
                break
        if ok:
            spans.append((window[0][0], window[3][1]))
    return spans


def _ref_known_address_spans(hostname, address):
    spans = []
    octets = address.split(".")
    if len(octets) != 4 or not all(o.isdecimal() and int(o) <= 255
                                   for o in octets):
        return spans
    padded = "".join(o.zfill(3) for o in octets)
    start = hostname.find(padded)
    while start != -1:
        spans.append((start, start + len(padded)))
        start = hostname.find(padded, start + 1)
    for order in (octets, octets[::-1]):
        spans.extend(_ref_ordered_octet_spans(hostname, order))
    return spans


def _ref_merge_spans(spans):
    if not spans:
        return []
    spans = sorted(spans)
    merged = [spans[0]]
    for start, end in spans[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def ref_embedded_ip_spans(hostname: str,
                          address: Optional[str]) -> List[Tuple[int, int]]:
    spans = []
    runs = ref_digit_runs(hostname)
    for i in range(len(runs) - 3):
        window = runs[i:i + 4]
        if not _ref_octets_ok([text for _, _, text in window]):
            continue
        seps = set()
        contiguous = True
        for a, b in zip(window, window[1:]):
            sep = hostname[a[1]:b[0]]
            if len(sep) != 1 or sep.isalnum():
                contiguous = False
                break
            seps.add(sep)
        if not contiguous or len(seps) != 1:
            continue
        spans.append((window[0][0], window[3][1]))
    if address is not None:
        spans.extend(_ref_known_address_spans(hostname, address))
    return _ref_merge_spans(spans)


def ref_apparent_runs(hostname: str, train_asn: int,
                      address: Optional[str]) -> List[Tuple[int, int, str]]:
    ip_spans = ref_embedded_ip_spans(hostname, address)
    out = []
    for start, end, text in ref_digit_runs(hostname):
        if any(start < s_end and end > s_start for s_start, s_end in ip_spans):
            continue
        if congruent(text, train_asn):
            out.append((start, end, text))
    return out


# -- inputs ------------------------------------------------------------------

octets = st.lists(st.integers(min_value=0, max_value=255),
                  min_size=4, max_size=4)
# Some quads carry an octet above 255: neither an embedded IP nor,
# as an address, a known one.
quads = st.one_of(octets, st.lists(st.integers(min_value=0, max_value=999),
                                   min_size=4, max_size=4))

# "²" is isdigit() but not decimal; the Arabic-Indic and Devanagari
# digits are decimal; "½" is numeric only.
letters = "abcxyz0123456789" + "²٣१½"
word = st.text(alphabet=letters, min_size=0, max_size=8)
punct = st.sampled_from(".-_")


@st.composite
def embedded_ip(draw, quad):
    """One rendering of ``quad`` as a hostname would carry it."""
    shape = draw(st.sampled_from(["dotted", "dashed", "reversed", "mixed",
                                  "padded", "none"]))
    parts = [str(o) for o in quad]
    if shape == "dotted":
        return ".".join(parts)
    if shape == "dashed":
        return "-".join(parts)
    if shape == "reversed":
        parts = parts[::-1]
    if shape in ("reversed", "mixed"):
        # Independent separators: only the known-address rule, not the
        # generic quad, accepts mixed punctuation.
        seps = [draw(punct) for _ in range(3)]
        return parts[0] + "".join(s + p for s, p in zip(seps, parts[1:]))
    if shape == "padded":
        return "".join(p.zfill(3) for p in parts)
    return ""


malformed_address = st.one_of(
    st.sampled_from(["1.2.x.4", "1.2.3", "1.2.3.4.5", "1..3.4", "1.2.3.256",
                     "1.2.².4", "١.2.3.4", " 1.2.3.4", "+1.2.3.4",
                     "", "0001.2.3.4"]),
    st.text(alphabet="0123456789.x²", max_size=12))


@st.composite
def observation(draw):
    """(hostname, train_asn, address) with embedded IPs and digit runs
    anywhere, and an address that may be absent, the embedded one,
    another valid one, or malformed."""
    quad = draw(quads)
    head = draw(word)
    pieces = [head, draw(punct), draw(embedded_ip(quad)), draw(punct),
              draw(word)]
    if draw(st.booleans()):
        pieces = pieces[2:] + pieces[:2]
    hostname = "".join(pieces) + ".example.net"
    kind = draw(st.sampled_from(["embedded", "embedded", "other", "none",
                                 "malformed"]))
    if kind == "embedded":
        address = ".".join(str(o) for o in quad)
    elif kind == "other":
        address = ".".join(str(o) for o in draw(octets))
    elif kind == "none":
        address = None
    else:
        address = draw(malformed_address)
    runs = ref_digit_runs(hostname)
    if runs and draw(st.booleans()):
        train_asn = int(draw(st.sampled_from(runs))[2])
    else:
        train_asn = draw(st.integers(min_value=0, max_value=70000))
    return hostname, train_asn, address


def _check(hostname, train_asn, address):
    runs = digit_runs(hostname)
    assert isinstance(runs, tuple)
    assert [(r.start, r.end, r.text) for r in runs] == ref_digit_runs(hostname)

    spans = embedded_ip_spans(hostname, address)
    assert isinstance(spans, tuple)
    assert list(spans) == ref_embedded_ip_spans(hostname, address)

    apparent = apparent_runs(hostname, train_asn, address)
    assert isinstance(apparent, tuple)
    assert ([(r.start, r.end, r.text) for r in apparent]
            == ref_apparent_runs(hostname, train_asn, address))


@settings(max_examples=150, deadline=None)
@given(st.lists(observation(), min_size=1, max_size=6))
def test_memoised_features_equal_fresh(observations):
    # Forward, then backward: the second pass is all cache hits, and
    # the order differs so a hit is never just the previous call.
    for obs in observations + observations[::-1]:
        _check(*obs)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=letters + ".-_", max_size=30),
       st.one_of(st.none(), malformed_address))
def test_memoised_features_equal_fresh_on_any_text(text, address):
    for _ in range(2):
        _check(text, 64500, address)
