"""Phase 3: embed character classes (section 3.4).

For each regex, the punctuation-exclusion components (``[^\\.]+``) are
specialised to the smallest character class covering everything they
actually matched in the training data (``[a-z]+``, ``\\d+``,
``[a-z\\d]+``, ...).  The specialised regex replaces the original when it
scores at least as well, increasing specificity without losing coverage.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.core.matchcache import MatchCache
from repro.core.regex_model import (
    CLASS_ALPHA,
    CLASS_DIGIT,
    ClassSeq,
    Element,
    Exclude,
    Regex,
    instrumented_pattern,
)


def _atoms_for(texts: Sequence[str]) -> FrozenSet[str]:
    """Smallest class-atom set covering all of ``texts``."""
    atoms: Set[str] = set()
    for text in texts:
        for ch in text:
            if ch.isdigit():
                atoms.add(CLASS_DIGIT)
            elif ch.isalpha():
                atoms.add(CLASS_ALPHA)
            else:
                atoms.add(ch)
    return frozenset(atoms)


def specialise_regex(regex: Regex,
                     cache: MatchCache) -> Optional[Regex]:
    """The character-class specialisation of ``regex`` over the dataset
    ``cache`` is bound to, if one exists.

    Returns ``None`` when the regex has no exclusion components or never
    matches the dataset; a regex whose match vector is empty is skipped
    without the instrumented re-match.
    """
    exclude_positions = [i for i, el in enumerate(regex.elements)
                         if isinstance(el, Exclude)]
    if not exclude_positions:
        return None
    if cache.vector(regex).n_matched == 0:
        return None
    variable_positions = [i for i, el in enumerate(regex.elements)
                          if el.variable]
    compiled, group_numbers = instrumented_pattern(regex)
    matched_texts: Dict[int, List[str]] = {i: [] for i in exclude_positions}
    for item in cache.dataset.items:
        match = compiled.match(item.hostname)
        if match is None:
            continue
        for position, group in zip(variable_positions, group_numbers):
            if position in matched_texts:
                matched_texts[position].append(match.group(group))
    new_elements: List[Element] = list(regex.elements)
    changed = False
    for position in exclude_positions:
        texts = matched_texts[position]
        if not texts:
            continue
        atoms = _atoms_for(texts)
        replacement = ClassSeq(atoms)
        if replacement.key() != new_elements[position].key():
            new_elements[position] = replacement
            changed = True
    if not changed:
        return None
    return regex.with_elements(new_elements)
