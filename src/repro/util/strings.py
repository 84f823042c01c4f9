"""String helpers used by the Hoiho-ASN congruence rules.

The paper (section 3.1) decides whether a number extracted from a hostname
is *congruent* with a training ASN using exact equality or a
Damerau-Levenshtein edit distance of one with guard conditions.  This
module provides the distance function and helpers for locating candidate
numeric strings inside hostnames.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

FEATURE_MEMO_SIZE = 1 << 16
"""Entries kept by each hostname-feature memo (:func:`digit_runs`,
:func:`repro.util.ipaddr.embedded_ip_spans` and
:func:`repro.core.congruence.apparent_runs`).  A SMALL timeline holds
~5k distinct hostnames, so the bound is never reached there."""

_DIGIT_RUN = re.compile(r"\d+")


@dataclass(frozen=True)
class DigitRun:
    """A maximal run of decimal digits inside a string.

    Attributes:
        start: index of the first digit.
        end: index one past the last digit (``text[start:end]`` is the run).
        text: the digits themselves.
    """

    start: int
    end: int
    text: str

    @property
    def value(self) -> int:
        """The run interpreted as a base-10 integer."""
        return int(self.text)

    def __len__(self) -> int:
        return self.end - self.start


@functools.lru_cache(maxsize=FEATURE_MEMO_SIZE)
def digit_runs(text: str) -> Tuple[DigitRun, ...]:
    """Return every maximal digit run in ``text``, left to right.

    A run is a maximal ``\\d+`` match -- Unicode decimal digits, the
    characters a learned regex's ``\\d`` captures -- so a character
    such as ``²``, which ``str.isdigit`` accepts, ends a run.  Results
    are memoised process-wide and shared, hence a tuple.

    >>> [r.text for r in digit_runs("p24115.mel.equinix.com")]
    ['24115']
    >>> [r.text for r in digit_runs("te-4-0-0-85.53w")]
    ['4', '0', '0', '85', '53']
    >>> digit_runs("alter.net")
    ()
    """
    return tuple(DigitRun(m.start(), m.end(), m.group())
                 for m in _DIGIT_RUN.finditer(text))


def iter_subruns(run: DigitRun, min_len: int = 1) -> Iterator[DigitRun]:
    """Yield every contiguous sub-run of ``run`` with length >= ``min_len``.

    Hostnames sometimes concatenate an ASN with other digits (for example a
    port or unit number), so congruence checks may need to consider
    substrings of a digit run, not just the whole run.  Sub-runs are yielded
    longest-first so that callers preferring maximal matches can stop early.
    """
    length = len(run.text)
    for sublen in range(length, min_len - 1, -1):
        for off in range(0, length - sublen + 1):
            yield DigitRun(run.start + off, run.start + off + sublen,
                           run.text[off:off + sublen])


def damerau_levenshtein(a: str, b: str) -> int:
    """Restricted Damerau-Levenshtein distance between two strings.

    Counts insertions, deletions, substitutions, and transpositions of two
    adjacent characters, each as one edit (the "optimal string alignment"
    variant, matching the distance used by Hoiho).

    >>> damerau_levenshtein("22822", "22282")
    1
    >>> damerau_levenshtein("605", "6057")
    1
    >>> damerau_levenshtein("109", "109")
    0
    """
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    # Classic O(la*lb) dynamic program with one extra row remembered for
    # the transposition case.
    prev2: List[int] = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(
                prev[j] + 1,        # deletion
                cur[j - 1] + 1,     # insertion
                prev[j - 1] + cost  # substitution
            )
            if (i > 1 and j > 1 and a[i - 1] == b[j - 2]
                    and a[i - 2] == b[j - 1]):
                cur[j] = min(cur[j], prev2[j - 2] + 1)  # transposition
        prev2, prev = prev, cur
    return prev[lb]


def common_prefix_len(items: Sequence[str]) -> int:
    """Length of the longest common prefix across ``items``.

    >>> common_prefix_len(["as1299", "as209", "as64500"])
    2
    >>> common_prefix_len([])
    0
    """
    if not items:
        return 0
    first = min(items)
    last = max(items)
    i = 0
    for ca, cb in zip(first, last):
        if ca != cb:
            break
        i += 1
    return i


def common_suffix_len(items: Sequence[str]) -> int:
    """Length of the longest common suffix across ``items``."""
    return common_prefix_len([s[::-1] for s in items])


PUNCTUATION = ".-_"
"""Characters treated as structural punctuation inside hostnames."""


def is_punct(ch: str) -> bool:
    """True if ``ch`` is hostname punctuation (dot, hyphen, underscore)."""
    return ch in PUNCTUATION


def split_segments(text: str) -> List[str]:
    """Split ``text`` into alternating segment/punctuation tokens.

    The returned list always starts and ends with a (possibly empty)
    non-punctuation segment, with single punctuation characters between
    them, so ``"".join(split_segments(t)) == t``.

    >>> split_segments("p24115.mel")
    ['p24115', '.', 'mel']
    >>> split_segments("-a")
    ['', '-', 'a']
    """
    tokens: List[str] = []
    seg: List[str] = []
    for ch in text:
        if is_punct(ch):
            tokens.append("".join(seg))
            tokens.append(ch)
            seg = []
        else:
            seg.append(ch)
    tokens.append("".join(seg))
    return tokens
