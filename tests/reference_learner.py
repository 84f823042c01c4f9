"""An independent from-scratch learner: the oracle for planner tests.

Every learner entry point dispatches suffixes through the delta planner
(:func:`repro.core.delta.learn_artifacts`), which fingerprints,
deduplicates and, with a store, caches suffix training problems.  This
reference does none of that: it groups the items by public suffix,
learns each suffix in sorted order and collects a ``HoihoResult``.
Tests hold the planner's results to it.
"""

from repro.core.hoiho import HoihoResult, learn_suffix
from repro.core.types import group_by_suffix


def learn_from_scratch(items, config, psl=None) -> HoihoResult:
    """Learn ``items`` suffix by suffix, with no planner and no store."""
    datasets = group_by_suffix(items, psl)
    result = HoihoResult(suffixes_examined=len(datasets))
    for suffix in sorted(datasets):
        convention = learn_suffix(datasets[suffix], config)
        if convention is not None:
            result.conventions[suffix] = convention
    return result
