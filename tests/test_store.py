"""Unit tests for the persistent content-addressed artifact store."""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.core.delta import plan_datasets, resolve_plans
from repro.core.hoiho import HoihoConfig, SuffixArtifact, suffix_cache_payload
from repro.core.types import SuffixDataset, TrainingItem
from repro.eval.context import ExperimentContext, Scale
from repro.store import (
    KIND_HOIHO,
    KIND_SUFFIX,
    KIND_TIMELINE,
    KIND_WORLD,
    KINDS,
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    fingerprint,
)
from repro.topology.world import WorldConfig


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestFingerprint:
    def test_deterministic(self):
        payload = {"kind": "world", "seed": 7, "config": WorldConfig.tiny()}
        assert fingerprint(payload) == fingerprint(payload)

    def test_sensitive_to_every_field(self):
        base = {"kind": "world", "seed": 7, "config": WorldConfig.tiny()}
        assert fingerprint(base) != fingerprint({**base, "seed": 8})
        assert fingerprint(base) != fingerprint({**base, "kind": "timeline"})
        assert fingerprint(base) != fingerprint(
            {**base, "config": WorldConfig.small()})

    def test_dataclass_field_change_invalidates(self):
        config = WorldConfig.tiny()
        changed = WorldConfig(asgraph=dataclasses.replace(
            config.asgraph, n_stub=config.asgraph.n_stub + 1))
        assert fingerprint({"config": config}) \
            != fingerprint({"config": changed})

    def test_key_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_containers_canonicalised(self):
        assert fingerprint({"x": (1, 2)}) == fingerprint({"x": [1, 2]})
        assert fingerprint({"x": {2, 1}}) == fingerprint({"x": [1, 2]})

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        payload = {"kind": "world", "seed": 7}
        before = fingerprint(payload)
        monkeypatch.setattr("repro.store.STORE_SCHEMA_VERSION",
                            STORE_SCHEMA_VERSION + 1)
        assert fingerprint(payload) != before

    def test_v2_worlds_are_not_read_by_v3(self, monkeypatch, store):
        # v3 changed the pickled RouteTable from a bit trie to one hash
        # table per prefix length: a world pickled by a v2 checkout
        # must miss, not unpickle into attributes nobody reads.
        assert STORE_SCHEMA_VERSION == 3
        payload = ExperimentContext(7, Scale.TINY)._world_payload()
        v3 = fingerprint(payload)
        monkeypatch.setattr("repro.store.STORE_SCHEMA_VERSION", 2)
        assert fingerprint(payload) != v3
        store.put(KIND_WORLD, payload, "world pickled by v2")
        monkeypatch.setattr("repro.store.STORE_SCHEMA_VERSION", 3)
        assert store.get(KIND_WORLD, payload) is None

    def test_payload_schema_key_does_not_mask_version(self, monkeypatch):
        # Regression: a payload key named "schema" used to overwrite
        # the store schema version in the fingerprint envelope, so a
        # version bump failed to invalidate exactly those entries.
        payload = {"schema": 123, "seed": 7}
        before = fingerprint(payload)
        monkeypatch.setattr("repro.store.STORE_SCHEMA_VERSION",
                            STORE_SCHEMA_VERSION + 1)
        assert fingerprint(payload) != before

    def test_payload_schema_key_is_distinct(self):
        # ...and the "schema" entry itself still contributes.
        assert fingerprint({"schema": 1}) != fingerprint({"schema": 2})
        assert fingerprint({"schema": STORE_SCHEMA_VERSION}) \
            != fingerprint({})

    def test_mixed_type_keys_fingerprint(self):
        # Regression: sorted(value.items()) raised TypeError on
        # mixed-type dict keys.
        payload = {"m": {1: "a", "z": "b", None: "c", 2.5: "d"}}
        assert fingerprint(payload) == fingerprint(payload)

    def test_int_and_str_keys_do_not_alias(self):
        # Regression: str(key) canonicalisation made {1: x} and
        # {"1": x} share a fingerprint (two configs, one cache slot).
        assert fingerprint({"m": {1: "x"}}) != fingerprint({"m": {"1": "x"}})
        assert fingerprint({"m": {True: "x"}}) \
            != fingerprint({"m": {1: "x"}})
        assert fingerprint({"m": {None: "x"}}) \
            != fingerprint({"m": {"None": "x"}})


class TestStoreRoundTrip:
    def test_miss_then_hit(self, store):
        payload = {"kind": "world", "seed": 1}
        assert store.get(KIND_WORLD, payload) is None
        store.put(KIND_WORLD, payload, {"artifact": [1, 2, 3]})
        assert store.get(KIND_WORLD, payload) == {"artifact": [1, 2, 3]}
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_kinds_are_disjoint(self, store):
        payload = {"seed": 1}
        store.put(KIND_WORLD, payload, "a world")
        assert store.get(KIND_TIMELINE, payload) is None

    def test_config_change_misses(self, store):
        store.put(KIND_HOIHO, {"hoiho_config": HoihoConfig()}, "learned")
        changed = HoihoConfig(min_tp=4)
        assert store.get(KIND_HOIHO, {"hoiho_config": changed}) is None

    def test_corrupt_entry_reads_as_miss(self, store):
        payload = {"kind": "world", "seed": 1}
        path = store.put(KIND_WORLD, payload, "fine")
        path.write_bytes(b"not a pickle")
        assert store.get(KIND_WORLD, payload) is None

    def test_sidecar_records_payload(self, store):
        payload = {"kind": "world", "seed": 9}
        path = store.put(KIND_WORLD, payload, "artifact")
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["schema"] == STORE_SCHEMA_VERSION
        # canonical payload keys carry their type tag ("s:" = str)
        assert sidecar["payload"]["s:seed"] == 9

    def test_contains(self, store):
        payload = {"seed": 2}
        assert not store.contains(KIND_WORLD, payload)
        store.put(KIND_WORLD, payload, "x")
        assert store.contains(KIND_WORLD, payload)


#: Store entries written by the schema-v3 code before ``put``/``get``
#: took a precomputed fingerprint (one suffix artifact, see
#: :func:`_fixture_suffix`).
V3_FIXTURE = Path(__file__).parent / "fixtures" / "store_v3"
V3_SUFFIX_KEY = \
    "6a7aeb8c443a916ac86a509fa491f30aad40ee516cd4de391a3e1a83022baec9"


def _fixture_suffix():
    items = [TrainingItem("as%d.r%d.alpha-inc.org" % (100 + i % 3, i),
                          100 + i % 3) for i in range(6)]
    return SuffixDataset("alpha-inc.org", items)


class TestPinnedKeys:
    """Fingerprints and entry bytes are frozen: changing either
    orphans every store on disk, which needs a schema bump."""

    def test_fixed_payload_digest(self):
        payload = {"kind": "world", "seed": 7, "f": 2.5,
                   "m": {1: "a", "z": (1, 2), None: {3, 2}}}
        assert fingerprint(payload) == \
            "3b61633192e1128a6fb22141f5b58881baf8da53d9837cc1b3bd94e36d4c81c9"

    def test_suffix_payload_digest(self):
        payload = suffix_cache_payload(_fixture_suffix(), HoihoConfig())
        assert fingerprint(payload) == V3_SUFFIX_KEY

    def test_put_with_key_writes_identical_files(self, tmp_path):
        payload = suffix_cache_payload(_fixture_suffix(), HoihoConfig())
        artifact = SuffixArtifact("alpha-inc.org", None, "fixture")
        plain = ArtifactStore(tmp_path / "plain").put(
            KIND_SUFFIX, payload, artifact)
        keyed = ArtifactStore(tmp_path / "keyed").put(
            KIND_SUFFIX, payload, artifact, key=fingerprint(payload))
        assert plain.name == keyed.name == V3_SUFFIX_KEY + ".pkl"
        for suffix in (".pkl", ".json"):
            assert plain.with_suffix(suffix).read_bytes() \
                == keyed.with_suffix(suffix).read_bytes()

    def test_sidecar_matches_committed_entry(self, store):
        payload = suffix_cache_payload(_fixture_suffix(), HoihoConfig())
        path = store.put(KIND_SUFFIX, payload,
                         SuffixArtifact("alpha-inc.org", None, "fixture"))
        committed = V3_FIXTURE / KIND_SUFFIX / (V3_SUFFIX_KEY + ".json")
        assert path.with_suffix(".json").read_bytes() \
            == committed.read_bytes()

    def test_entry_from_v3_code_still_hits(self, tmp_path):
        # The committed entry was pickled by the code before this
        # keying path existed; the planner must find it unchanged.
        assert STORE_SCHEMA_VERSION == 3
        shutil.copytree(V3_FIXTURE, tmp_path / "cache")
        store = ArtifactStore(tmp_path / "cache")
        plans = plan_datasets([_fixture_suffix()], HoihoConfig())
        assert plans[0].fingerprint == V3_SUFFIX_KEY
        hits, misses = resolve_plans(store, plans)
        assert misses == []
        assert hits[0][1] == SuffixArtifact("alpha-inc.org", None,
                                            "fixture")


class TestStoreMaintenance:
    def test_info_and_clear(self, store):
        assert store.info()["entries"] == 0
        store.put(KIND_WORLD, {"seed": 1}, "a")
        store.put(KIND_TIMELINE, {"seed": 1}, "b")
        info = store.info()
        assert info["entries"] == 2
        assert info["bytes"] > 0
        assert store.clear() == 2
        assert store.info()["entries"] == 0
        assert store.entries() == []

    def test_info_reports_every_registered_namespace(self, store):
        # Regression: info() used to enumerate only the namespaces
        # that happened to have files on disk, so a new kind (or an
        # empty one) was invisible.  Every registered namespace must
        # appear, populated or not.
        store.put(KIND_WORLD, {"seed": 1}, "a")
        info = store.info()
        assert set(info["kinds"]) == set(KINDS)
        assert KIND_SUFFIX in info["kinds"]
        assert info["kinds"][KIND_SUFFIX] == {"entries": 0, "bytes": 0}
        assert info["kinds"][KIND_WORLD]["entries"] == 1

    def test_namespace_filtered_entries_and_clear(self, store):
        store.put(KIND_WORLD, {"seed": 1}, "a")
        store.put(KIND_SUFFIX, {"suffix": "x.com"}, "b")
        store.put(KIND_SUFFIX, {"suffix": "y.com"}, "c")
        assert len(store.entries()) == 3
        assert len(store.entries(KIND_SUFFIX)) == 2
        assert store.clear(KIND_SUFFIX) == 2
        # the other namespaces survive a filtered sweep
        assert len(store.entries()) == 1
        assert store.contains(KIND_WORLD, {"seed": 1})

    def test_unregistered_kind_is_rejected(self, store):
        # An unregistered namespace could never be reaped by
        # info/clear, so writing (or sweeping) one is a loud error.
        with pytest.raises(ValueError, match="unknown artifact namespace"):
            store.put("scratch", {"seed": 1}, "x")
        with pytest.raises(ValueError, match="unknown artifact namespace"):
            store.entries("scratch")
        with pytest.raises(ValueError, match="unknown artifact namespace"):
            store.clear("scratch")

    def test_stale_tmp_in_suffix_namespace_is_reaped(self, store):
        path = store.put(KIND_SUFFIX, {"suffix": "x.com"}, "fine")
        orphan = path.parent / ("e" * 64 + ".pkl.tmp.999")
        orphan.write_bytes(b"half a pickle")
        assert store.info()["stale_tmp"] == 1
        assert store.stale_tmp(KIND_SUFFIX) == [orphan]
        store.clear(KIND_SUFFIX)
        assert not orphan.exists()

    def test_info_on_missing_root(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-created")
        assert store.info()["entries"] == 0
        assert store.clear() == 0


class TestStoreDurability:
    def test_sidecar_write_is_atomic(self, store, monkeypatch):
        # Regression: the sidecar used to be written in place, so a
        # crash mid-write left a truncated .json next to a valid .pkl.
        # Now the failed write must leave no sidecar (and no tmp) at
        # all -- the artifact itself is still durable.
        payload = {"seed": 5}
        store.put(KIND_WORLD, payload, "first")
        path = store.path_for(KIND_WORLD, payload)
        before = path.with_suffix(".json").read_text()

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")
        monkeypatch.setattr("repro.store.json.dump", explode)
        with pytest.raises(RuntimeError):
            store.put(KIND_WORLD, payload, "second")
        # old sidecar intact, not truncated, and no tmp left behind
        assert path.with_suffix(".json").read_text() == before
        assert store.stale_tmp() == []
        # the pickle write succeeded before the sidecar exploded
        assert store.get(KIND_WORLD, payload) == "second"

    def test_pickle_write_failure_leaves_no_tmp(self, store, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("disk full")
        monkeypatch.setattr("repro.store.pickle.dump", explode)
        with pytest.raises(RuntimeError):
            store.put(KIND_WORLD, {"seed": 6}, "never lands")
        assert store.stale_tmp() == []
        assert not store.contains(KIND_WORLD, {"seed": 6})

    def test_stale_tmp_reported_and_reaped(self, store):
        # Regression: orphaned .tmp.<pid> files from a crashed writer
        # were invisible to info() and survived clear() forever.
        path = store.put(KIND_WORLD, {"seed": 7}, "fine")
        orphan = path.parent / ("f" * 64 + ".pkl.tmp.12345")
        orphan.write_bytes(b"half a pickle")
        info = store.info()
        assert info["stale_tmp"] == 1
        assert info["entries"] == 1  # orphans are not entries
        assert store.clear() == 1    # ...and do not count as removed
        assert not orphan.exists()
        assert store.stale_tmp() == []
