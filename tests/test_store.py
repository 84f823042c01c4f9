"""Unit tests for the persistent content-addressed artifact store."""

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import shutil
import time
from pathlib import Path

import pytest

from repro.core.delta import (
    LabelPlan,
    TimelinePlan,
    learn_artifacts,
    plan_datasets,
)
from repro.core.hoiho import HoihoConfig, SuffixArtifact, suffix_cache_payload
from repro.core.parallel import ParallelConfig
from repro.core.types import SuffixDataset, TrainingItem
from repro.eval.context import ExperimentContext, Scale
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.store import (
    KIND_HOIHO,
    KIND_SUFFIX,
    KIND_TIMELINE,
    KIND_WORLD,
    KINDS,
    PACK_PREFIX,
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

    def test_v3_worlds_are_not_read_by_v4(self, monkeypatch, store):
        # v5 code has no branch that reads a v3 layout, so an entry a
        # v3 checkout stored must miss, not unpickle into a layout the
        # code no longer reads.
        assert STORE_SCHEMA_VERSION == 5
        payload = ExperimentContext(7, Scale.TINY)._world_payload()
        v5 = fingerprint(payload)
        monkeypatch.setattr("repro.store.STORE_SCHEMA_VERSION", 3)
        assert fingerprint(payload) != v5
        store.put(KIND_WORLD, payload, "world pickled by v3")
        monkeypatch.setattr("repro.store.STORE_SCHEMA_VERSION", 5)
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


#: A suffix artifact as the schema-v3 code stored it: a per-entry file
#: and its sidecar (see :func:`_fixture_suffix`).  Under v5 it must miss.
V3_FIXTURE = Path(__file__).parent / "fixtures" / "store_v3"
V3_SUFFIX_KEY = \
    "6a7aeb8c443a916ac86a509fa491f30aad40ee516cd4de391a3e1a83022baec9"
V5_SUFFIX_KEY = \
    "c99683707c3e849f8d3dcd3ff53eeda48777e8f155e973be9e3d49da553df4b3"


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
            "809cfea51444ea66feeeaa1a8a12e0e9dfc128d10add00a753ef50526dbb0daa"

    def test_suffix_payload_digest(self):
        payload = suffix_cache_payload(_fixture_suffix(), HoihoConfig())
        assert fingerprint(payload) == V5_SUFFIX_KEY

    def test_sidecar_matches_committed_entry(self, store):
        """The sidecar's bytes are pinned by their SHA-256; they differ
        from the committed v3 entry's only in the schema version and in
        the learner config, which lost ``enable_cache`` in v5."""
        payload = suffix_cache_payload(_fixture_suffix(), HoihoConfig())
        path = store.put(KIND_SUFFIX, payload,
                         SuffixArtifact("alpha-inc.org", None, "fixture"))
        sidecar = path.with_suffix(".json").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == \
            "806823ecb936a8d4e9e303b810d68957b894625a25846b2b9f30e6736d4d38ba"
        committed = V3_FIXTURE / KIND_SUFFIX / (V3_SUFFIX_KEY + ".json")
        assert sidecar == committed.read_bytes().replace(
            b'"schema": 3', b'"schema": 5').replace(
                b'      "s:enable_cache": true,\n', b"")

    def test_entry_from_v3_code_misses(self, tmp_path):
        """The committed v3 entry misses: the planner relearns what a
        storeless learn gives and packs it beside the old file."""
        shutil.copytree(V3_FIXTURE, tmp_path / "cache")
        store = ArtifactStore(tmp_path / "cache")
        plans = plan_datasets([_fixture_suffix()], HoihoConfig())
        assert plans[0].fingerprint == V5_SUFFIX_KEY

        def learn(store):
            return learn_artifacts(
                store, lambda: TimelinePlan([LabelPlan("", plans)], []),
                HoihoConfig(), ParallelConfig(), None)[1]
        assert learn(store) == learn(None)
        assert store.stats.as_dict() == {"hits": 0, "misses": 1,
                                         "writes": 1}
        folder = store.root / KIND_SUFFIX
        [pack] = folder.glob(PACK_PREFIX + "*.pkl")
        assert pickle.loads(pack.read_bytes()) == learn(None)
        assert (folder / (V3_SUFFIX_KEY + ".pkl")).read_bytes() \
            == (V3_FIXTURE / KIND_SUFFIX / (V3_SUFFIX_KEY + ".pkl")) \
            .read_bytes()
        warm = ArtifactStore(store.root)
        assert learn(warm) == learn(None) and warm.stats.hits == 1

    def test_cache_info_counts_the_v3_entry_stale(self, tmp_path, capsys):
        from repro.cli import main
        shutil.copytree(V3_FIXTURE, tmp_path / "cache")
        argv = ["cache", "info", "--cache-dir", str(tmp_path / "cache")]
        capsys.readouterr()
        assert main(argv + ["--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["entries"], info["stale"]) == (0, 1)
        assert info["kinds"][KIND_SUFFIX]["bytes"] > 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "stale         1 entry of an older schema" in out
        assert "total         0 entries" in out
        assert main(["cache", "clear", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert main(argv) == 0
        assert "empty" in capsys.readouterr().out


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


def _batch(n=3):
    """{fingerprint: artifact} for ``n`` distinct suffix artifacts."""
    return {fingerprint({"suffix": "s%d.com" % i}):
            SuffixArtifact("s%d.com" % i, None, "batch %d" % i)
            for i in range(n)}


def _spy_reads(store, monkeypatch):
    """The list of every path ``store`` reads from now on."""
    loads = []
    read = store._read
    monkeypatch.setattr(store, "_read",
                        lambda path: loads.append(path) or read(path))
    return loads


class TestPacks:
    """``put_many`` writes one pack per batch; ``get`` reads it back."""

    def test_round_trip_is_one_file_without_sidecar(self, tmp_path):
        tracer = Tracer()
        store = ArtifactStore(tmp_path / "cache", tracer=tracer)
        batch = _batch()
        path = store.put_many(KIND_SUFFIX, batch)
        digest = hashlib.sha256("".join(sorted(batch)).encode("ascii"))
        assert path.name == PACK_PREFIX + digest.hexdigest() + ".pkl"
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        assert store.stats.writes == 1
        [put] = [r for r in tracer.records if r["name"] == "store.put"]
        assert put["attrs"]["entries"] == 3
        for key, artifact in batch.items():
            assert store.get(KIND_SUFFIX, None, key=key) == artifact
        assert ArtifactStore(tmp_path / "cache").get(
            KIND_SUFFIX, None, key=next(iter(batch))) is not None
        assert store.get(KIND_SUFFIX, {"suffix": "other.com"}) is None

    def test_pack_name_ignores_insertion_order(self, tmp_path):
        batch = _batch()
        backwards = dict(reversed(list(batch.items())))
        forwards = ArtifactStore(tmp_path / "a").put_many(KIND_SUFFIX, batch)
        assert forwards.name == ArtifactStore(tmp_path / "b").put_many(
            KIND_SUFFIX, backwards).name

    def test_empty_batch_writes_nothing(self, store):
        assert store.put_many(KIND_SUFFIX, {}) is None
        assert store.entries() == [] and store.stats.writes == 0
        with pytest.raises(ValueError, match="unknown artifact namespace"):
            store.put_many("scratch", {})

    def test_packs_and_entry_files_both_hit(self, store):
        # ``get`` reads a kind's entry file, then its packs.
        store.put(KIND_SUFFIX, {"suffix": "entry.com"}, "per-entry")
        batch = _batch()
        store.put_many(KIND_SUFFIX, batch)
        assert store.get(KIND_SUFFIX, {"suffix": "entry.com"}) == "per-entry"
        for key, artifact in batch.items():
            assert store.get(KIND_SUFFIX, None, key=key) == artifact
            assert store.contains(KIND_SUFFIX, {"suffix": artifact.suffix})

    def test_info_and_clear_count_packed_entries(self, store):
        store.put_many(KIND_SUFFIX, _batch(3))
        store.put(KIND_SUFFIX, {"suffix": "x.com"}, "per-entry")
        store.put(KIND_WORLD, {"seed": 1}, "a world")
        info = store.info()
        assert info["kinds"][KIND_SUFFIX]["entries"] == 4
        assert info["entries"] == 5
        assert len(store.entries(KIND_SUFFIX)) == 2  # files on disk
        assert store.clear(KIND_SUFFIX) == 4
        assert store.info()["kinds"][KIND_SUFFIX]["entries"] == 0
        assert store.info()["entries"] == 1

    def test_pack_of_another_schema_is_stale(self, store, monkeypatch):
        """A pack named for no schema (as v3 wrote them) or for another
        one is never loaded: its entries miss, and ``info`` counts them
        stale until ``clear`` removes the file."""
        batch = _batch()
        folder = store.root / KIND_SUFFIX
        folder.mkdir(parents=True)
        for name in ("pack-" + "a" * 64, "pack-v3-" + "b" * 64):
            (folder / (name + ".pkl")).write_bytes(pickle.dumps(batch))
        loads = _spy_reads(store, monkeypatch)
        for key in batch:
            assert store.get(KIND_SUFFIX, None, key=key) is None
        assert not [path for path in loads if path.name.startswith("pack-")]
        info = store.info()
        assert (info["entries"], info["stale"]) == (0, 6)
        assert store.clear() == 6
        assert store.info()["stale"] == 0 and not list(folder.iterdir())

    def test_orphaned_pack_tmp_only_misses(self, store):
        # A writer killed before its rename leaves a complete pickle
        # under the temporary name: it must never be read as a pack.
        batch = _batch()
        folder = store.root / KIND_SUFFIX
        folder.mkdir(parents=True)
        orphan = folder / (PACK_PREFIX + "d" * 64 + ".pkl.tmp.4242")
        orphan.write_bytes(pickle.dumps(batch))
        for key in batch:
            assert store.get(KIND_SUFFIX, None, key=key) is None
        info = store.info()
        assert info["stale_tmp"] == 1
        assert info["kinds"][KIND_SUFFIX]["entries"] == 0
        assert store.clear() == 0
        assert not orphan.exists()

    def test_truncated_pack_warns_and_misses(self, tmp_path, caplog):
        batch = _batch()
        path = ArtifactStore(tmp_path / "cache").put_many(KIND_SUFFIX, batch)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        store = ArtifactStore(tmp_path / "cache")
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            for key in batch:
                assert store.get(KIND_SUFFIX, None, key=key) is None
        assert any("unreadable entry" in r.getMessage() and
                   path.name in r.getMessage() for r in caplog.records)
        assert store.info()["kinds"][KIND_SUFFIX]["entries"] == 0
        assert store.clear(KIND_SUFFIX) == 0 and not path.exists()

    def test_instance_sees_a_pack_written_after_its_miss(self, tmp_path):
        reader = ArtifactStore(tmp_path / "cache")
        writer = ArtifactStore(tmp_path / "cache")
        first, second = _batch(1), {fingerprint({"n": 2}): "second"}
        writer.put_many(KIND_SUFFIX, first)
        [key] = second
        assert reader.get(KIND_SUFFIX, None, key=key) is None
        writer.put_many(KIND_SUFFIX, second)
        assert reader.get(KIND_SUFFIX, None, key=key) == "second"
        [(old, artifact)] = first.items()
        assert reader.get(KIND_SUFFIX, None, key=old) == artifact

    def test_settled_view_reloads_only_when_mtime_moves(self, tmp_path,
                                                        monkeypatch):
        # Once the directory's mtime is older than the clock's
        # granularity, gets reuse the loaded packs until the mtime moves.
        reader = ArtifactStore(tmp_path / "cache")
        writer = ArtifactStore(tmp_path / "cache")
        batch = _batch()
        writer.put_many(KIND_SUFFIX, batch)
        folder = tmp_path / "cache" / KIND_SUFFIX
        stamp = folder.stat().st_mtime_ns
        real = time.time_ns
        monkeypatch.setattr("repro.store.time.time_ns",
                            lambda: real() + 10 * 10 ** 9)
        loads = _spy_reads(reader, monkeypatch)
        for key in batch:
            assert reader.get(KIND_SUFFIX, None, key=key) is not None
        assert sum(p.name.startswith(PACK_PREFIX) for p in loads) == 1
        second = {fingerprint({"n": 2}): "second"}
        writer.put_many(KIND_SUFFIX, second)
        # A coarse clock may give the write the old mtime; move it
        # explicitly, as a later tick would.
        os.utime(folder, ns=(stamp + 10 ** 9, stamp + 10 ** 9))
        [key] = second
        assert reader.get(KIND_SUFFIX, None, key=key) == "second"
        assert sum(p.name.startswith(PACK_PREFIX) for p in loads) == 3

    def test_fresh_view_is_reloaded(self, store, monkeypatch):
        # A view taken within 0.1 s of the directory's mtime may have
        # missed a change a coarse clock stamped the same: reload it.
        store.put_many(KIND_SUFFIX, _batch(1))
        stamp = (store.root / KIND_SUFFIX).stat().st_mtime_ns
        monkeypatch.setattr("repro.store.time.time_ns", lambda: stamp)
        loads = _spy_reads(store, monkeypatch)
        [key] = _batch(1)
        store.get(KIND_SUFFIX, None, key=key)
        store.get(KIND_SUFFIX, None, key=key)
        assert sum(p.name.startswith(PACK_PREFIX) for p in loads) == 2


class TestGetMany:
    """One lookup of many keys: one directory listing, one pack view,
    and the entry files that exist, counted as one ``get`` per key."""

    def _populated(self, root):
        store = ArtifactStore(root)
        entry = store.put(KIND_SUFFIX, {"suffix": "entry.com"}, "per-entry")
        corrupt = store.put(KIND_SUFFIX, {"suffix": "bad.com"}, "fine")
        corrupt.write_bytes(b"not a pickle")
        batch = _batch(2)
        store.put_many(KIND_SUFFIX, batch)
        keys = [entry.stem, corrupt.stem, *batch, fingerprint({"n": 9})]
        return keys, ["per-entry", None, *batch.values(), None]

    def test_entry_pack_and_corrupt_entry(self, tmp_path, monkeypatch):
        keys, expected = self._populated(tmp_path / "cache")
        tracer = Tracer()
        store = ArtifactStore(tmp_path / "cache", tracer=tracer)
        loads = _spy_reads(store, monkeypatch)
        assert store.get_many(KIND_SUFFIX, keys) == expected
        # The two entry files on disk and the pack, each read once.
        assert sorted(path.name for path in loads) == sorted(
            [keys[0] + ".pkl", keys[1] + ".pkl"]
            + [p.name for p in store.entries(KIND_SUFFIX)
               if p.name.startswith(PACK_PREFIX)])
        [get] = [r for r in tracer.records if r["name"] == "store.get"]
        assert get["attrs"] == {"kind": KIND_SUFFIX, "keys": 5, "hits": 3}

    def test_counts_as_one_get_per_key(self, tmp_path):
        keys, _ = self._populated(tmp_path / "cache")
        batched = ArtifactStore(tmp_path / "cache",
                                metrics=MetricsRegistry())
        single = ArtifactStore(tmp_path / "cache",
                               metrics=MetricsRegistry())
        batched.get_many(KIND_SUFFIX, keys + keys[:1])
        for key in keys + keys[:1]:
            single.get(KIND_SUFFIX, None, key=key)
        assert batched.stats.as_dict() == single.stats.as_dict() \
            == {"hits": 4, "misses": 2, "writes": 0}
        assert batched.metrics.snapshot() == single.metrics.snapshot()

    def test_all_misses_make_no_hit_counter(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache", metrics=MetricsRegistry())
        assert store.get_many(KIND_WORLD, ["a" * 64, "b" * 64]) \
            == [None, None]
        counters = store.metrics.snapshot()["counters"]
        assert counters == {"store_misses": 2}

    def test_no_keys_is_no_lookup(self, tmp_path):
        tracer = Tracer()
        store = ArtifactStore(tmp_path / "cache", tracer=tracer)
        assert store.get_many(KIND_SUFFIX, []) == []
        assert tracer.records == [] and store.stats.misses == 0
        with pytest.raises(ValueError, match="unknown artifact namespace"):
            store.get_many("scratch", ["a" * 64])

    def test_one_key_get_names_its_fingerprint(self, store):
        tracer = store.tracer = Tracer()
        path = store.put(KIND_WORLD, {"seed": 1}, "a world")
        assert store.get(KIND_WORLD, {"seed": 1}) == "a world"
        [get] = [r for r in tracer.records if r["name"] == "store.get"]
        assert get["attrs"] == {"kind": KIND_WORLD, "keys": 1, "hits": 1,
                                "fingerprint": path.stem}


@pytest.fixture(scope="module")
def v3_store(tmp_path_factory):
    """A TINY ``all`` store written with the schema version set to 3,
    and packs named as v3 named them."""
    from repro.cli import main
    root = tmp_path_factory.mktemp("v3") / "cache"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.store.STORE_SCHEMA_VERSION", 3)
        patch.setattr("repro.store.PACK_PREFIX", "pack-")
        assert main(["all", "--scale", "tiny", "--cache-dir",
                     str(root)]) == 0
    return root


class TestV3StoreMisses:
    """Under v5 a store the v3 code wrote is a cold store."""

    def test_every_lookup_misses(self, v3_store, tmp_path):
        shutil.copytree(v3_store, tmp_path / "cache")
        store = ArtifactStore(tmp_path / "cache")
        ExperimentContext(2020, Scale.TINY, store=store).learn_timeline()
        assert store.stats.hits == 0 and store.stats.misses > 0

    def test_info_counts_every_v3_entry_stale(self, v3_store, tmp_path,
                                              monkeypatch):
        shutil.copytree(v3_store, tmp_path / "cache")
        store = ArtifactStore(tmp_path / "cache")
        info = store.info()
        assert info["entries"] == 0 and info["stale"] > 0
        loads = _spy_reads(store, monkeypatch)
        ExperimentContext(2020, Scale.TINY, store=store).learn_timeline()
        assert not [path for path in loads if path.name.startswith("pack-")
                    and path.name.endswith(".pkl")
                    and "-v%d-" % STORE_SCHEMA_VERSION not in path.name]
        after = store.info()
        assert after["stale"] == info["stale"] and after["entries"] > 0
        assert store.clear() == after["stale"] + after["entries"]

    def test_warm_all_prints_the_storeless_output(self, v3_store, tmp_path,
                                                  capsys):
        from repro.cli import main
        shutil.copytree(v3_store, tmp_path / "cache")
        capsys.readouterr()
        assert main(["all", "--scale", "tiny", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        warm = capsys.readouterr().out
        assert main(["all", "--scale", "tiny", "--no-cache"]) == 0
        assert warm == capsys.readouterr().out
