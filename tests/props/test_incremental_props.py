"""Property: incremental learning == from-scratch learning.

The delta planner's whole contract is invisibility: whatever sequence
of snapshots arrives -- suffixes added, removed, mutated, repeated
byte-for-byte -- learning through a warm per-suffix cache, or
deduplicating identical suffixes across a timeline, must produce the
same :class:`HoihoResult` (and byte-identical conventions JSON) as
learning each snapshot from scratch.  "From scratch" is the test-side
reference learner, which bypasses the planner entirely.  These
properties drive randomly perturbed snapshot sequences through both
and require exact equality, including after a config change that moves
every fingerprint.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hoiho import Hoiho, HoihoConfig
from repro.core.io import conventions_to_json
from repro.core.types import TrainingItem
from repro.eval.context import ExperimentContext, Scale
from repro.eval.timeline import TrainingSet
from repro.store import ArtifactStore
from tests.reference_learner import learn_from_scratch

FAST = HoihoConfig(max_candidates=60, generation_sample=20, eval_pool=20,
                   set_pool=6, n_seeds=2)

SUFFIXES = ["alpha-inc.org", "beta-inc.org", "gamma-inc.org",
            "delta-inc.org"]

# One snapshot = per-suffix knobs: present? which ASN base? how many
# items?  Drawing these per suffix yields adds/removes/mutations/
# repeats between consecutive snapshots for free.
suffix_state = st.fixed_dictionaries({
    "present": st.booleans(),
    "base": st.integers(min_value=0, max_value=3),
    "n": st.integers(min_value=8, max_value=14),
})
snapshot = st.tuples(*[suffix_state for _ in SUFFIXES])
timeline = st.lists(snapshot, min_size=1, max_size=3)


def _items(snap):
    items = []
    for suffix, state in zip(SUFFIXES, snap):
        if not state["present"]:
            continue
        base = 700 + 50 * state["base"]
        for i in range(state["n"]):
            items.append(TrainingItem(
                "as%d.r%d.%s" % (base + i % 3, i, suffix), base + i % 3))
    return items


def _assert_same(learned, scratch):
    assert learned == scratch
    assert conventions_to_json(learned) == conventions_to_json(scratch)


def _assert_equivalent(snaps, config):
    with tempfile.TemporaryDirectory(prefix="repro-inc-prop-") as tmp:
        store = ArtifactStore(tmp)
        for snap in snaps:
            items = _items(snap)
            _assert_same(Hoiho(config, store=store).run(items),
                         learn_from_scratch(items, config))


def _timeline_learned(snaps, config, store):
    context = ExperimentContext(seed=1, scale=Scale.TINY,
                                hoiho_config=config, store=store)
    context._timeline = [
        TrainingSet(label="s%d" % index, kind="itdk", method="rtaa",
                    year=2020.0, items=_items(snap))
        for index, snap in enumerate(snaps)]
    return context.learn_timeline()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(snaps=timeline)
def test_incremental_equals_from_scratch(snaps):
    _assert_equivalent(snaps, FAST)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(snaps=timeline)
def test_timeline_dedupe_equals_from_scratch(snaps):
    # One learn_timeline over every snapshot dedupes suffixes repeated
    # across snapshots, with and without a store; each label must
    # still match its own from-scratch learning.
    with tempfile.TemporaryDirectory(prefix="repro-inc-prop-") as tmp:
        for store in (None, ArtifactStore(tmp)):
            learned = _timeline_learned(snaps, FAST, store)
            for index, snap in enumerate(snaps):
                _assert_same(learned["s%d" % index],
                             learn_from_scratch(_items(snap), FAST))


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(snap=snapshot)
def test_config_change_forces_full_relearn_and_stays_equivalent(snap):
    # The same snapshot under two configs: each config's results must
    # match its own from-scratch learning (no cross-config aliasing --
    # every HoihoConfig field is part of the suffix fingerprint).
    changed = HoihoConfig(max_candidates=61, generation_sample=20,
                          eval_pool=20, set_pool=6, n_seeds=2)
    with tempfile.TemporaryDirectory(prefix="repro-inc-prop-") as tmp:
        store = ArtifactStore(tmp)
        items = _items(snap)
        for config in (FAST, changed):
            _assert_same(Hoiho(config, store=store).run(items),
                         learn_from_scratch(items, config))
