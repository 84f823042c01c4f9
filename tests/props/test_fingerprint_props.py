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
    enable_sets=st.booleans())


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


@given(st.lists(st.builds(TrainingItem,
                          # Few hostnames, so items often share one and
                          # differ only in ASN or address.
                          hostname=st.sampled_from(["as1.例え.jp", "X.com"])
                          | text,
                          train_asn=st.integers(-2 ** 70, 2 ** 70),
                          address=st.none() | text),
                min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.tuples(text, st.lists(st.sampled_from(pool))),
                          min_size=1, max_size=5)),
       configs)
def test_one_item_memo_serves_datasets_sharing_items(datasets, config):
    """A fingerprinter encodes each distinct item once and reuses the
    text for every later dataset holding it: the datasets here draw
    from one pool of item objects, so most items are memo hits, and
    the second pass (reversed) is all hits."""
    encode = suffix_fingerprinter(config)
    built = [SuffixDataset(suffix, item_list)
             for suffix, item_list in datasets]
    for dataset in built + built[::-1]:
        assert encode(dataset) \
            == fingerprint(suffix_cache_payload(dataset, config))


def test_item_memo_with_non_ascii_and_unknown_addresses():
    shared = [TrainingItem("as64500.zürich.例え.jp", 64500),
              TrainingItem("as64501.zürich.例え.jp", 64501, "192.0.2.1"),
              TrainingItem("as64501.zürich.例え.jp", 64502, "192.0.2.1"),
              TrainingItem("as64501.zürich.例え.jp", 64501, None),
              TrainingItem('as1."\\x.例え.jp', 2 ** 70, None)]
    config = HoihoConfig()
    encode = suffix_fingerprinter(config)
    for dataset in (SuffixDataset("例え.jp", shared),
                    SuffixDataset("例え.jp", shared[:2]),
                    SuffixDataset("例え.jp", shared[1:] + shared[:1])):
        assert encode(dataset) \
            == fingerprint(suffix_cache_payload(dataset, config))


def test_items_of_unusual_types_encode_as_the_payload_does():
    """An ASN that is a bool or an int subclass, or an address that is
    a str subclass, still digests as the payload does."""
    import enum

    class Asn(enum.IntEnum):
        EXAMPLE = 64500

    class Name(str):
        pass

    config = HoihoConfig()
    encode = suffix_fingerprinter(config)
    for item in (TrainingItem("as1.x.com", True),
                 TrainingItem("as64500.x.com", Asn.EXAMPLE),
                 TrainingItem("as64500.x.com", 64500, Name("192.0.2.1"))):
        dataset = SuffixDataset("x.com", [item])
        assert encode(dataset) \
            == fingerprint(suffix_cache_payload(dataset, config))
