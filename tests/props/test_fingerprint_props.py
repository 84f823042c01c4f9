"""Property: the planner's fingerprint encoder equals the payload oracle.

:func:`~repro.core.hoiho.suffix_fingerprinter` hashes a suffix's items
without walking them through :func:`~repro.store.canonical`; the store
keys and every committed entry were made by
``fingerprint(suffix_cache_payload(dataset, config))``.  The two must
agree on any dataset and config: hostnames with non-ASCII, quote,
backslash and control characters, items without an address, ASNs past
32 and 64 bits, and every config field moved off its default.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.delta import plan_datasets
from repro.core.hoiho import (
    HoihoConfig,
    suffix_cache_payload,
    suffix_fingerprint,
    suffix_fingerprinter,
)
from repro.core.types import SuffixDataset, TrainingItem
from repro.store import fingerprint

#: Characters a JSON encoder must escape or write as non-ASCII.
AWKWARD = "\"\\\x00\x01\x1f\x7féİ 中\U0001f600"

text = st.text(alphabet=st.sampled_from(AWKWARD) | st.characters(),
               max_size=24)
items = st.lists(st.builds(
    TrainingItem,
    hostname=text,
    train_asn=st.integers(-2 ** 70, 2 ** 70),
    address=st.none() | text), max_size=12)
configs = st.builds(
    HoihoConfig,
    min_hostnames=st.integers(0, 10 ** 6),
    min_apparent=st.integers(-5, 5),
    min_distinct_asns=st.integers(0, 5),
    min_tp=st.integers(0, 5),
    max_candidates=st.integers(1, 2 ** 40),
    generation_sample=st.integers(1, 100),
    eval_pool=st.integers(1, 200),
    set_pool=st.integers(1, 30),
    n_seeds=st.integers(1, 8),
    enable_merge=st.booleans(),
    enable_classes=st.booleans(),
    enable_sets=st.booleans(),
    enable_cache=st.booleans())


@given(text, items, configs)
def test_encoder_equals_payload_fingerprint(suffix, item_list, config):
    dataset = SuffixDataset(suffix, item_list)
    expected = fingerprint(suffix_cache_payload(dataset, config))
    assert suffix_fingerprint(dataset, config) == expected
    assert suffix_fingerprinter(config)(dataset) == expected
    assert plan_datasets([dataset], config)[0].fingerprint == expected


@given(st.lists(st.tuples(text, items), min_size=1, max_size=4), configs)
def test_one_fingerprinter_serves_every_dataset(datasets, config):
    """The config is made canonical once per fingerprinter; every
    dataset it hashes must still get its own payload's digest."""
    encode = suffix_fingerprinter(config)
    for suffix, item_list in datasets:
        dataset = SuffixDataset(suffix, item_list)
        assert encode(dataset) \
            == fingerprint(suffix_cache_payload(dataset, config))
