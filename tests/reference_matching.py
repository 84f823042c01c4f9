"""The sequential first-match loop: the oracle for fused matchers.

A served :class:`~repro.serve.index.AnnotationPlan` runs one fused
alternation regex whenever :func:`~repro.serve.index.fuse_patterns`
proves it equivalent to trying the plan's patterns one by one.  These
helpers try them one by one, and tests hold the served plans and
services to them.
"""

import re
from typing import Iterable, Optional, Sequence

from repro.core.select import HoihoResult
from repro.serve.service import AnnotationService


def first_match(patterns: Sequence[str], hostname: str) -> Optional[int]:
    """The ASN captured by the first of ``patterns`` to match."""
    for pattern in patterns:
        match = re.match(pattern, hostname)
        if match is not None:
            return int(match.group(1))
    return None


class SequentialLoop:
    """A plan matcher that runs :func:`first_match`."""

    fused = False

    def __init__(self, patterns: Iterable[str]) -> None:
        self.patterns = tuple(patterns)

    def extract(self, hostname: str) -> Optional[int]:
        return first_match(self.patterns, hostname)


def sequential_service(result: HoihoResult) -> AnnotationService:
    """A service without a memo whose every plan runs the loop: the
    unoptimised reference for the serving hot path."""
    service = AnnotationService(result, memo_size=0)
    for suffix in service.index.suffixes():
        plan = service.index.plan_for(suffix)
        plan._matcher = SequentialLoop(plan.patterns)
    return service
