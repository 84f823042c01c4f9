"""Congruence rules and per-hostname classification (section 3.1).

The paper scores a regex against a hostname as:

* **TP** -- the regex extracts a number congruent with the training ASN:
  equal, or at Damerau-Levenshtein distance one when the first and last
  characters agree and both numbers have at least three digits (the guard
  that separates figure 3a's typos from coincidences);
* **FP** -- the regex extracts an incongruent number, or the extraction
  lies inside an IP address embedded in the hostname (figure 3b) even if
  numerically congruent;
* **FN** -- the regex does not match a hostname that contains an apparent
  ASN (a non-IP digit run congruent with the training ASN);
* otherwise the hostname does not contribute.

ATP = TP - (FP + FN) ranks regexes (the ASN-specific definition, which
penalises both error kinds, unlike the alias-resolution Hoiho).
"""

from __future__ import annotations

import enum
import functools
from typing import Optional, Sequence, Tuple

from repro.util.ipaddr import embedded_ip_spans
from repro.util.strings import (
    FEATURE_MEMO_SIZE,
    DigitRun,
    damerau_levenshtein,
    digit_runs,
)


class Outcome(enum.Enum):
    """Per-hostname classification of a regex's behaviour."""

    TP = "tp"
    FP = "fp"
    FN = "fn"
    NONE = "none"


def congruent(extracted: str, train_asn: int) -> bool:
    """Is the extracted digit string congruent with the training ASN?

    >>> congruent("24115", 24115)
    True
    >>> congruent("22822", 22282)   # adjacent transposition, guarded
    True
    >>> congruent("605", 6057)      # distance one, but last chars differ
    False
    >>> congruent("202073", 205073)  # middle substitution, guard holds
    True
    >>> congruent("109", 122)
    False
    >>> congruent("24", 42)         # too short for the guarded rule
    False
    """
    if not extracted or not extracted.isdigit():
        return False
    train_text = str(train_asn)
    if extracted.lstrip("0") == train_text or extracted == train_text:
        return True
    if (len(extracted) >= 3 and len(train_text) >= 3
            and extracted[0] == train_text[0]
            and extracted[-1] == train_text[-1]
            and damerau_levenshtein(extracted, train_text) == 1):
        return True
    return False


def _in_spans(start: int, end: int,
              spans: Sequence[Tuple[int, int]]) -> bool:
    """Does [start, end) overlap any of the (sorted) spans?"""
    for span_start, span_end in spans:
        if start < span_end and end > span_start:
            return True
        if span_start >= end:
            break
    return False


def apparent_asn_runs(hostname: str, train_asn: int,
                      ip_spans: Sequence[Tuple[int, int]],
                      ) -> Tuple[DigitRun, ...]:
    """Digit runs in ``hostname`` congruent with ``train_asn``.

    Runs overlapping an embedded IP address are excluded: they are
    figure-3b coincidences, not annotations.
    """
    return tuple(run for run in digit_runs(hostname)
                 if not _in_spans(run.start, run.end, ip_spans)
                 and congruent(run.text, train_asn))


@functools.lru_cache(maxsize=FEATURE_MEMO_SIZE)
def apparent_runs(hostname: str, train_asn: int,
                  address: Optional[str]) -> Tuple[DigitRun, ...]:
    """:func:`apparent_asn_runs` of one training observation, excluding
    the IP spans :func:`~repro.util.ipaddr.embedded_ip_spans` finds for
    its interface ``address`` (None when unknown).

    Memoised process-wide: the pre-check gate, phase-1 generation and
    the evaluation cache's FN baseline all ask for it, for every
    training set that holds the observation.

    >>> [r.text for r in apparent_runs("as209.x.net", 209, None)]
    ['209']
    >>> apparent_runs("209-1-2-3.x.net", 209, None)
    ()
    """
    return apparent_asn_runs(hostname, train_asn,
                             embedded_ip_spans(hostname, address))


def classify_extraction(extracted: Optional[str],
                        span: Optional[Tuple[int, int]],
                        hostname: str,
                        train_asn: int,
                        ip_spans: Sequence[Tuple[int, int]]) -> Outcome:
    """Classify one regex-vs-hostname encounter.

    ``extracted``/``span`` are the capture text and character range when
    the regex matched, or ``None`` when it did not.
    """
    if extracted is not None and span is not None:
        if _in_spans(span[0], span[1], ip_spans):
            return Outcome.FP
        if congruent(extracted, train_asn):
            return Outcome.TP
        return Outcome.FP
    if apparent_asn_runs(hostname, train_asn, ip_spans):
        return Outcome.FN
    return Outcome.NONE
