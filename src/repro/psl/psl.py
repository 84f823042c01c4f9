"""Parser and lookup for public-suffix-list rule files.

Implements the algorithm from https://publicsuffix.org/list/:

* rules are matched label-by-label from the right;
* ``*`` matches exactly one label;
* exception rules (``!``) defeat a matching wildcard rule;
* among matching rules the one with the most labels wins;
* if no rule matches, the public suffix is the rightmost label.

The *registered domain* (what the paper calls the suffix an operator
registers, e.g. ``example.com``) is the public suffix plus one more label.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.psl.list_data import EMBEDDED_PSL


class PublicSuffixList:
    """A parsed public suffix list supporting registered-domain extraction.

    >>> psl = default_psl()
    >>> psl.registered_domain("ge0-2.01.p.ost.ch.as15576.nts.ch")
    'nts.ch'
    >>> psl.registered_domain("foo.example.co.uk")
    'example.co.uk'
    >>> psl.public_suffix("foo.example.co.uk")
    'co.uk'
    """

    def __init__(self, rules: Iterable[str]) -> None:
        # Map rule tuple (labels, reversed) -> is_exception
        self._rules: Dict[Tuple[str, ...], bool] = {}
        for raw in rules:
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            # Rules may carry trailing whitespace-separated comments.
            line = line.split()[0]
            exception = line.startswith("!")
            if exception:
                line = line[1:]
            labels = tuple(reversed(line.lower().lstrip(".").split(".")))
            if labels and all(labels):
                self._rules[labels] = exception
        # Every leading slice of every rule: the label walk keeps only
        # the paths that can still reach a rule.
        self._prefixes: Set[Tuple[str, ...]] = {
            rule[:depth] for rule in self._rules
            for depth in range(1, len(rule) + 1)}

    @classmethod
    def from_text(cls, text: str) -> "PublicSuffixList":
        """Parse a PSL-format string (one rule per line, // comments)."""
        return cls(text.splitlines())

    @classmethod
    def from_file(cls, path: str) -> "PublicSuffixList":
        """Parse a PSL-format file from disk."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_text(handle.read())

    def __len__(self) -> int:
        return len(self._rules)

    def _suffix_width(self, labels: List[str]) -> int:
        """How many of the reversed labels ``labels`` the suffix spans.

        Walks the labels from the right, extending each live rule prefix
        by the exact label and by ``*``; the walk ends when no prefix
        survives, so its cost depends on the hostname, not the list.
        """
        rules, prefixes = self._rules, self._prefixes
        normal = exception = 0
        live: List[Tuple[str, ...]] = [()]
        for depth, label in enumerate(labels, 1):
            step = []
            for prefix in live:
                for key in (prefix + (label,), prefix + ("*",)):
                    if key in prefixes:
                        step.append(key)
                        if key in rules:
                            if rules[key]:
                                exception = depth
                            else:
                                normal = depth
            if not step:
                break
            live = step
        if exception:
            # An exception rule's suffix is the rule minus its first label.
            width = exception - 1
        else:
            width = normal or 1  # default rule: "*" (rightmost label)
        return min(width, len(labels))

    def public_suffix(self, hostname: str) -> Optional[str]:
        """Return the public suffix of ``hostname`` (lower-cased).

        Returns ``None`` for an empty hostname.
        """
        hostname = hostname.strip(".").lower()
        if not hostname:
            return None
        labels = hostname.split(".")
        width = self._suffix_width(labels[::-1])
        return ".".join(labels[len(labels) - width:])

    def registered_domain(self, hostname: str) -> Optional[str]:
        """Return the registerable domain of ``hostname``.

        This is the public suffix plus one label -- the unit the paper
        trains one naming convention for.  Returns ``None`` when the
        hostname *is* a public suffix (nothing was registered under it).
        """
        hostname = hostname.strip(".").lower()
        if not hostname:
            return None
        labels = hostname.split(".")
        # An empty suffix (left by a one-label exception rule such as
        # ``!com``) still counts as one label.
        width = max(self._suffix_width(labels[::-1]), 1)
        if len(labels) <= width:
            return None
        return ".".join(labels[-(width + 1):])


_DEFAULT: Optional[PublicSuffixList] = None


def default_psl() -> PublicSuffixList:
    """The embedded snapshot, parsed once and cached."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList.from_text(EMBEDDED_PSL)
    return _DEFAULT
