"""Persistent content-addressed artifact store.

Every expensive pipeline artifact -- a generated :class:`World`, a
timeline of training sets, a learned :class:`HoihoResult` -- is a pure
function of its configuration.  The store exploits that: artifacts are
keyed by a **fingerprint**, the SHA-256 of a canonical JSON rendering of
everything the artifact depends on (master seed, world/scale config,
snapshot spec, learner config) plus a schema version.  Any config
change, however small, changes the fingerprint, so stale artifacts are
never served -- they are simply never looked up again (invalidation by
construction).

Layout on disk::

    <root>/
      worlds/<fingerprint>.pkl        pickled artifact
      worlds/<fingerprint>.json       the fingerprint payload, for humans
      timelines/...                   training sets: items, plus each
                                      ITDK snapshot result as a pickled
                                      body that loads on first use
      hoiho/...                       whole-result learned conventions
      suffixes/pack-v5-<hash>.pkl     per-suffix learned conventions
                                      (content-addressed by training set
                                      + learner config; the incremental
                                      relearning substrate): packs named
                                      by schema version, no sidecars

``repro-hoiho cache info`` and ``repro-hoiho cache clear`` operate on a
store; :class:`~repro.eval.context.ExperimentContext` consults one when
constructed with ``store=``.  Bump :data:`STORE_SCHEMA_VERSION` whenever
a stored layout changes: entries of the old version then miss and are
rebuilt, so no class keeps a branch that reads an older layout.  Until
``cache clear`` removes them, ``cache info`` counts such entries as
``stale``, apart from the live ``entries``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import pickle
import time
from pathlib import Path
from typing import (IO, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

logger = logging.getLogger(__name__)

#: Version of the pickled artifact layouts and the fingerprint keying
#: scheme; part of every fingerprint.  v2: dict keys are type-tagged
#: tokens and the payload nests beside the schema version.  v3: a
#: world's RouteTable holds one hash table per prefix length, not a trie.
#: v4: results store no traces or naming; suffixes live only in packs.
#: v5: ``HoihoConfig`` lost ``enable_cache`` (the match cache is the
#: only scorer), so every suffix, ``hoiho/`` and run key moved.
STORE_SCHEMA_VERSION = 5

#: Artifact kinds the store recognises (a kind is just a subdirectory).
KIND_WORLD = "worlds"
KIND_TIMELINE = "timelines"
KIND_HOIHO = "hoiho"
KIND_SUFFIX = "suffixes"

#: Every registered namespace, in display order.  Maintenance methods
#: (:meth:`ArtifactStore.entries`, :meth:`ArtifactStore.info`,
#: :meth:`ArtifactStore.clear`, :meth:`ArtifactStore.stale_tmp`) derive
#: their walk from this tuple -- a namespace that is not registered
#: here cannot be written at all (:meth:`ArtifactStore.path_for`
#: rejects it), so a new artifact kind can never silently be omitted
#: from info/clear/stale-tmp reaping.
KINDS = (KIND_WORLD, KIND_TIMELINE, KIND_HOIHO, KIND_SUFFIX)

#: File name prefix of a pack of any schema version.
_PACK = "pack-"

#: File name prefix of a pack of this schema version
#: (:meth:`ArtifactStore.put_many`).  Lookups read only these; packs of
#: other versions, and untagged ones from before packs carried a
#: version, are stale.
PACK_PREFIX = "%sv%d-" % (_PACK, STORE_SCHEMA_VERSION)


def _key_token(key: object) -> str:
    """A JSON dict key that is both *sortable* and *type-faithful*.

    Plain ``str(key)`` would alias ``{1: x}`` with ``{"1": x}`` (two
    distinct configs sharing a cache entry), and ``sorted(items())`` on
    mixed-type keys raises ``TypeError``.  Prefixing every key with a
    type tag fixes both: tokens are plain strings (always sortable) and
    keys of different types can never collide.
    """
    if isinstance(key, str):
        return "s:" + key
    if isinstance(key, bool):  # before int: bool is an int subclass
        return "b:%r" % key
    if isinstance(key, int):
        return "i:%d" % key
    if isinstance(key, float):
        return "f:%r" % key
    if key is None:
        return "n:"
    return "r:" + repr(key)


#: Exact types :func:`canonical` passes through unchanged.  None of
#: them can be a dataclass or a container, so checking them first skips
#: the slow ABC checks without changing any result.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def canonical(value: object) -> object:
    """Make ``value`` JSON-stable: dataclasses become sorted dicts,
    tuples become lists, sets become sorted lists, and dict keys become
    type-tagged tokens sorted by their stringified form."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list or kind is tuple:
        return [canonical(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {token: canonical(item)
                for token, item in sorted(
                    (_key_token(k), v) for k, v in value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _envelope(payload: Mapping) -> Dict[str, object]:
    """The canonical payload nested beside the schema version.

    The payload nests under its own key so none of its entries can
    collide with the envelope -- a payload key named ``"schema"`` must
    not overwrite the store schema version, or version bumps would stop
    invalidating exactly the entries that carry that key.
    """
    return {"schema": STORE_SCHEMA_VERSION, "payload": canonical(payload)}


#: The JSON encoder of every fingerprint: compact separators, sorted
#: keys, ASCII only.  A caller that encodes parts of a payload itself
#: (:func:`fingerprint_encoded`) uses this one.
encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

@functools.lru_cache(maxsize=None)
def _envelope_text(version: int) -> str:
    """:func:`_envelope`'s JSON text with ``%s`` for the payload's
    text, rendered from :func:`_envelope` itself (its payload ``None``
    is its only ``null``), so the envelope is spelled in one place.
    Cached by the schema version it holds."""
    return encode_json(_envelope(None)).replace("null", "%s")


def _digest(payload_text: str) -> str:
    """SHA-256 of ``encode_json(_envelope(payload))``, given the
    canonical payload's :data:`encode_json` text."""
    text = _envelope_text(STORE_SCHEMA_VERSION) % payload_text
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(payload: Mapping) -> str:
    """SHA-256 of the canonical JSON of ``payload`` + schema version."""
    return _digest(encode_json(canonical(payload)))


def fingerprint_encoded(fields: Mapping[str, str]) -> str:
    """:func:`fingerprint` of a payload with string keys, given each
    value as its :data:`encode_json` text, which is neither decoded nor
    walked: a caller that has encoded a value once can reuse its text.

    The text must be what :data:`encode_json` writes for the value's
    :func:`canonical` form (a tuple is written as the list
    :func:`canonical` would make of it, so it may be encoded as is).
    """
    return _digest("{%s}" % ",".join(
        "%s:%s" % (encode_json(token), text) for token, text in sorted(
            (_key_token(key), text) for key, text in fields.items())))


@dataclasses.dataclass
class StoreStats:
    """Hit/miss counters for one store instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class ArtifactStore:
    """A content-addressed pickle store rooted at a directory.

    The store is safe to share across runs and configurations: a lookup
    with a payload that does not exactly reproduce a prior ``put``'s
    payload misses.  Corrupt or unreadable entries read as misses (and
    the offending files are ignored, not deleted).
    """

    def __init__(self, root: Union[str, Path], tracer=None,
                 metrics=None) -> None:
        from repro.obs.trace import NULL_TRACER
        self.root = Path(root)
        self.stats = StoreStats()
        # Attachable after construction too (ExperimentContext wires
        # its tracer into a store the CLI built earlier).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self._packs: Dict[str, Tuple[Optional[int], Dict[str, object]]] = {}

    # -- keying ------------------------------------------------------------

    def path_for(self, kind: str, payload: Optional[Mapping],
                 key: Optional[str] = None) -> Path:
        """Where the artifact for ``payload`` lives (existing or not).

        ``kind`` must be a registered namespace (:data:`KINDS`) --
        writing into an unregistered subdirectory would create entries
        invisible to :meth:`info`/:meth:`clear`.  ``key`` is
        ``payload``'s fingerprint when the caller already holds it
        (a :class:`~repro.core.delta.SuffixPlan` does); it must equal
        ``fingerprint(payload)``, which is computed when it is omitted.
        With ``key`` given, ``payload`` is not read and may be ``None``.
        """
        _check_kind(kind)
        if key is None:
            key = fingerprint(payload)
        return self.root / kind / (key + ".pkl")

    # -- access ------------------------------------------------------------

    def contains(self, kind: str, payload: Mapping) -> bool:
        """True when an artifact for ``payload`` is on disk."""
        path = self.path_for(kind, payload)
        return path.is_file() or path.stem in self._packed(kind)

    def get(self, kind: str, payload: Optional[Mapping],
            key: Optional[str] = None) -> Optional[object]:
        """The stored artifact, or ``None`` on miss/corruption.

        ``key`` is ``payload``'s precomputed fingerprint, as in
        :meth:`path_for`.  The one-key case of :meth:`get_many`.
        """
        path = self.path_for(kind, payload, key)
        return self.get_many(kind, [path.stem])[0]

    def get_many(self, kind: str,
                 keys: Sequence[str]) -> List[Optional[object]]:
        """The stored artifact of each fingerprint in ``keys``, in
        order, ``None`` for a miss or a corrupt entry.

        The directory is listed once and only the entry files it holds
        are opened; the keys no entry file answers are looked up in the
        packs of ``kind``, read once.  Worlds, timelines and learned
        results are entry files, suffix artifacts are packed.  Hits and
        misses are counted per key, as one :meth:`get` per key would
        count them, under one ``store.get`` span (``keys``, ``hits``;
        ``fingerprint`` too when there is one key).
        """
        _check_kind(kind)
        if not keys:
            return []
        folder = self.root / kind
        attrs = {"fingerprint": keys[0]} if len(keys) == 1 else {}
        with self.tracer.span("store.get", kind=kind, keys=len(keys),
                              **attrs) as span:
            try:
                names = set(os.listdir(folder))
            except OSError:
                names = set()
            found = [self._read(folder / (key + ".pkl"))
                     if key + ".pkl" in names else None for key in keys]
            if names and any(artifact is None for artifact in found):
                packed = self._packed(kind)
                found = [packed.get(key) if artifact is None else artifact
                         for key, artifact in zip(keys, found)]
            hits = sum(artifact is not None for artifact in found)
            misses = len(keys) - hits
            span.set(hits=hits)
            self.stats.hits += hits
            self.stats.misses += misses
            if self.metrics is not None:
                # A counter is made only when a lookup moves it.
                if hits:
                    self.metrics.counter("store_hits").inc(hits)
                if misses:
                    self.metrics.counter("store_misses").inc(misses)
        return found

    def _read(self, path: Path) -> Optional[object]:
        if not path.is_file():
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception as exc:  # corrupt entry reads as a miss
            logger.warning("store: unreadable entry %s (%s)", path, exc)
            return None

    def _packed(self, kind: str) -> Dict[str, object]:
        """Every packed entry of ``kind`` in this schema's packs,
        {fingerprint: artifact}: loaded once, reloaded when the
        directory's ``st_mtime_ns`` changes (a stale view can only miss).
        An unreadable pack adds nothing."""
        folder = self.root / kind
        try:
            stamp = folder.stat().st_mtime_ns
        except OSError:
            return {}
        view = self._packs.get(kind)
        if view is None or view[0] != stamp:
            merged: Dict[str, object] = {}
            for pack in sorted(folder.glob(PACK_PREFIX + "*.pkl")):
                merged.update(self._read(pack) or {})
            # A coarse clock can stamp a change within 0.1 s the same.
            racy = time.time_ns() - stamp < 100_000_000
            view = self._packs[kind] = (None if racy else stamp, merged)
        return view[1]

    def _count(self, path: Path) -> int:
        """Entries one file holds: a pack's fingerprints, else 1."""
        packed = path.name.startswith(_PACK)
        return len(self._read(path) or ()) if packed else 1

    @staticmethod
    def _stale(path: Path) -> bool:
        """True for a file of another schema version, which no lookup
        reads: a pack not named :data:`PACK_PREFIX`, or an entry whose
        sidecar names another schema.  An entry with no readable
        sidecar counts as live."""
        if path.name.startswith(_PACK):
            return not path.name.startswith(PACK_PREFIX)
        try:
            with open(path.with_suffix(".json"), encoding="utf-8") as handle:
                schema = json.load(handle).get("schema")
        except (OSError, ValueError, AttributeError):
            return False
        return schema != STORE_SCHEMA_VERSION

    def put(self, kind: str, payload: Mapping, artifact: object) -> Path:
        """Persist ``artifact`` under ``payload``'s fingerprint.

        Both the pickle and its ``.json`` sidecar go through
        :func:`_atomic_write`, so a crashed run never leaves a
        half-written pickle *or* a truncated sidecar next to a valid
        one.  ``payload`` is canonicalised once, for the sidecar and
        the hash.
        """
        envelope = _envelope(payload)
        path = self.path_for(kind, payload,
                             _digest(encode_json(envelope["payload"])))

        def sidecar(handle) -> None:
            json.dump(envelope, handle, indent=2, sort_keys=True)
            handle.write("\n")
        with self.tracer.span("store.put", kind=kind,
                              fingerprint=path.stem):
            _atomic_write(path, lambda handle: pickle.dump(
                artifact, handle, protocol=pickle.HIGHEST_PROTOCOL))
            _atomic_write(path.with_suffix(".json"), sidecar, "utf-8")
            self.stats.writes += 1
            if self.metrics is not None:
                self.metrics.counter("store_writes").inc()
        return path

    def put_many(self, kind: str,
                 artifacts: Dict[str, object]) -> Optional[Path]:
        """Persist ``artifacts``, {fingerprint: artifact}, as one pack: a
        pickled dict named by the SHA-256 of the sorted fingerprints,
        with no sidecar.  An empty mapping writes nothing."""
        name = hashlib.sha256("".join(sorted(artifacts)).encode("ascii"))
        path = self.path_for(kind, None, PACK_PREFIX + name.hexdigest())
        if not artifacts:
            return None
        with self.tracer.span("store.put", kind=kind, fingerprint=path.stem,
                              entries=len(artifacts)):
            _atomic_write(path, lambda handle: pickle.dump(
                artifacts, handle, protocol=pickle.HIGHEST_PROTOCOL))
            self.stats.writes += 1  # one committed file
            if self.metrics is not None:
                self.metrics.counter("store_writes").inc()
        return path

    # -- maintenance -------------------------------------------------------

    def entries(self, kind: Optional[str] = None) -> List[Path]:
        """Every pickle on disk, packs included, in the registered
        namespaces (:data:`KINDS`) or in ``kind``.  An unregistered
        namespace cannot be written (:meth:`path_for` refuses it), so
        maintenance never misses one."""
        return self._walk(kind, "*.pkl")

    def stale_tmp(self, kind: Optional[str] = None) -> List[Path]:
        """Orphaned temporaries left behind by crashed writers."""
        return self._walk(kind, "*.tmp.*")

    def _walk(self, kind: Optional[str], pattern: str) -> List[Path]:
        """Sorted ``pattern`` matches in every namespace, or in ``kind``."""
        if kind is not None:
            _check_kind(kind)
        return sorted(path for name in ((kind,) if kind else KINDS)
                      for path in (self.root / name).glob(pattern))

    def info(self) -> Dict[str, object]:
        """Summary for ``repro-hoiho cache info``.

        Every registered namespace is reported, including empty ones
        (zero entries, zero bytes) -- consumers see the full namespace
        inventory, not just the populated corners.  ``entries`` counts
        what this schema can read; ``stale`` counts entries of other
        schema versions (:meth:`_stale`), which only hold disk space
        until :meth:`clear`.  ``bytes`` covers both.
        """
        kinds: Dict[str, Dict[str, int]] = {
            name: {"entries": 0, "bytes": 0} for name in KINDS}
        total_bytes = stale = 0
        for path in self.entries():
            size = path.stat().st_size
            entry = kinds[path.parent.name]
            if self._stale(path):
                stale += self._count(path)
            else:
                entry["entries"] += self._count(path)
            entry["bytes"] += size
            total_bytes += size
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "kinds": kinds,
            "entries": sum(k["entries"] for k in kinds.values()),
            "stale": stale,
            "bytes": total_bytes,
            "stale_tmp": len(self.stale_tmp()),
            "session": self.stats.as_dict(),
        }

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete artifacts (plus sidecars and any stale temporaries
        left by crashed writers); returns entries removed, counting a
        pack's fingerprints.

        ``kind`` restricts the sweep to one namespace -- e.g. flushing
        ``suffixes`` without nuking warm world/timeline artifacts.
        Stale temporaries do not count as entries.
        """
        removed = 0
        for path in self.entries(kind):
            removed += self._count(path)
            sidecar = path.with_suffix(".json")
            path.unlink()
            if sidecar.is_file():
                sidecar.unlink()
        for tmp in self.stale_tmp(kind):
            tmp.unlink()
        return removed


def _atomic_write(path: Path, write: Callable[[IO], None],
                  encoding: Optional[str] = None) -> None:
    """Write ``path`` via ``write(handle)`` on ``<name>.tmp.<pid>`` (text
    when ``encoding`` is given) and an atomic rename.  A failed write
    leaves no temporary; a killed writer's is reaped by ``clear``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name("%s.tmp.%d" % (path.name, os.getpid()))
    try:
        with open(tmp, "wb" if encoding is None else "w",
                  encoding=encoding) as handle:
            write(handle)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError("unknown artifact namespace %r (registered: %s)"
                         % (kind, ", ".join(KINDS)))

