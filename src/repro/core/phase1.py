"""Phase 1: generate base regexes (section 3.2).

For every training hostname containing an apparent ASN, Hoiho builds
anchored candidate regexes that capture the ASN with ``(\\d+)``, embed the
alphanumeric characters sharing the ASN's punctuation-delimited portion
as literals, and cover the remaining portions with components keyed on
adjacent punctuation (``[^\\.]+``, ``[^-]+``) or -- at most once per
regex -- with ``.+``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.regex_model import Any_, Cap, Element, Exclude, Lit, Regex
from repro.core.types import SuffixDataset


def _segment_offsets(tokens: Sequence[str]) -> List[int]:
    """Start offset of each token within the joined local part."""
    offsets = []
    position = 0
    for token in tokens:
        offsets.append(position)
        position += len(token)
    return offsets


def _delimiters(tokens: Sequence[str], seg_index: int) -> (str, str):
    """(left, right) punctuation around segment token ``seg_index``.

    The virtual delimiter right of the last segment is the dot that
    separates the local part from the suffix.
    """
    left = tokens[seg_index - 1] if seg_index > 0 else ""
    right = tokens[seg_index + 1] if seg_index + 1 < len(tokens) else "."
    return left, right


def _segment_element(tokens: Sequence[str], seg_index: int,
                     mode: str) -> Element:
    """Element covering a non-ASN segment under an exclusion mode."""
    text = tokens[seg_index]
    if not text:
        return Lit("")
    left, right = _delimiters(tokens, seg_index)
    char = right if (mode == "right" or not left) else left
    return Exclude(frozenset(char))


def _asn_segment_elements(segment: str, run_start: int,
                          run_end: int) -> List[Element]:
    """Elements for the portion containing the ASN: literals + capture."""
    elements: List[Element] = []
    left = segment[:run_start]
    right = segment[run_end:]
    if left:
        elements.append(Lit(left))
    elements.append(Cap())
    if right:
        elements.append(Lit(right))
    return elements


def candidates_for_item(dataset: SuffixDataset, index: int,
                        max_any_ranges: int = 24) -> List[Regex]:
    """Base regexes derived from one training item.

    Returns an empty list when the hostname contains no apparent ASN.
    """
    item = dataset.items[index]
    local = dataset.local_part(item)
    if not local:
        return []
    runs = [run for run in dataset.apparent_runs(index)
            if run.end <= len(local)]
    if not runs:
        return []
    tokens = dataset.tokens(item)
    offsets = _segment_offsets(tokens)
    out: List[Regex] = []
    seen: Set[str] = set()

    def emit(elements: Sequence[Element]) -> None:
        regex = Regex(elements, dataset.suffix)
        if regex.pattern not in seen:
            seen.add(regex.pattern)
            out.append(regex)

    for run in runs:
        seg_index = _find_segment(tokens, offsets, run.start, run.end)
        if seg_index is None:
            continue
        asn_elements = _asn_segment_elements(
            tokens[seg_index], run.start - offsets[seg_index],
            run.end - offsets[seg_index])

        # Plain expansions under both exclusion modes.
        for mode in ("right", "left"):
            elements: List[Element] = []
            for tok_index, token in enumerate(tokens):
                if tok_index == seg_index:
                    elements.extend(asn_elements)
                elif tok_index % 2 == 1:
                    elements.append(Lit(token))
                else:
                    elements.append(_segment_element(tokens, tok_index, mode))
            emit(elements)

        # Variants replacing one contiguous run of segments with ``.+``.
        n_segments = (len(tokens) + 1) // 2
        emitted_ranges = 0
        for first in range(n_segments):
            for last in range(first, n_segments):
                lo, hi = first * 2, last * 2
                if lo <= seg_index <= hi:
                    continue
                if emitted_ranges >= max_any_ranges:
                    break
                elements = []
                tok_index = 0
                while tok_index < len(tokens):
                    if tok_index == lo:
                        elements.append(Any_())
                        tok_index = hi + 1
                        continue
                    if tok_index == seg_index:
                        elements.extend(asn_elements)
                    elif tok_index % 2 == 1:
                        elements.append(Lit(tokens[tok_index]))
                    else:
                        elements.append(
                            _segment_element(tokens, tok_index, "right"))
                    tok_index += 1
                emit(elements)
                emitted_ranges += 1
    return out


def _find_segment(tokens: Sequence[str], offsets: Sequence[int],
                  start: int, end: int) -> Optional[int]:
    """Token index of the segment containing [start, end), if any."""
    for tok_index in range(0, len(tokens), 2):
        seg_start = offsets[tok_index]
        seg_end = seg_start + len(tokens[tok_index])
        if seg_start <= start and end <= seg_end:
            return tok_index
    return None


def generate_base_regexes(dataset: SuffixDataset,
                          max_candidates: int = 800,
                          sample: Optional[int] = None) -> List[Regex]:
    """Phase-1 candidates for a whole dataset, deduplicated in order.

    ``sample`` caps how many items seed generation (items are visited in
    the dataset's deterministic sorted order); ``max_candidates`` caps the
    total pool so pathological suffixes stay tractable.
    """
    out: List[Regex] = []
    seen: Set[str] = set()
    visited = 0
    for index in range(len(dataset.items)):
        if sample is not None and visited >= sample:
            break
        candidates = candidates_for_item(dataset, index)
        if candidates:
            visited += 1
        for regex in candidates:
            if regex.pattern in seen:
                continue
            seen.add(regex.pattern)
            out.append(regex)
            if len(out) >= max_candidates:
                return out
    return out
