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
      suffixes/pack-<hash>.pkl        per-suffix learned conventions
                                      (content-addressed by training set
                                      + learner config; the incremental
                                      relearning substrate): packs, no
                                      sidecars; plus older entry files

``repro-hoiho cache info`` and ``repro-hoiho cache clear`` operate on a
store; :class:`~repro.eval.context.ExperimentContext` consults one when
constructed with ``store=``.  Bump :data:`STORE_SCHEMA_VERSION` when new
code cannot read an old pickle correctly.  A layout change that old
pickles still load into (a class that converts or drops old fields in
``__setstate__``) keeps the version, and the stored artifacts with it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import time
from pathlib import Path
from typing import IO, Callable, Dict, List, Mapping, Optional, Tuple, Union

logger = logging.getLogger(__name__)

#: Version of the pickled artifact layouts and the fingerprint keying
#: scheme; part of every fingerprint.  v2: dict keys are type-tagged
#: tokens and the payload nests beside the schema version.  v3: a
#: world's RouteTable holds one hash table per prefix length, not a trie.
#: Still v3: snapshot results store their traces as a ``TraceSet`` and
#: no router graph, and load v3 pickles that carry a trace list and one.
#: Still v3: a timeline stores each snapshot result as a pickled body
#: without world or items, and loads v3 timelines that hold them inline.
#: Still v3: suffix artifacts are written as packs; new code reads old
#: per-entry files, and old code only misses on packs.
#: Still v3: an RTAA snapshot result stores ``traces=None`` and replays
#: its campaign on first read; new code returns the stored traces of
#: old RTAA bodies, and old code raises on ``TraceSet(None)`` rather
#: than read a new body as an empty trace set.
#: Still v3: every snapshot result stores ``traces=None`` and
#: ``naming=None``, replaying its campaign and re-deriving its naming on
#: first read; new code returns what older bodies stored, and code
#: before this reads ``naming=None`` and fails on its first use.
STORE_SCHEMA_VERSION = 3

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

#: File name prefix of a pack (:meth:`ArtifactStore.put_many`).
PACK_PREFIX = "pack-"


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


def _digest(envelope: Mapping) -> str:
    text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(payload: Mapping) -> str:
    """SHA-256 of the canonical JSON of ``payload`` + schema version."""
    return _digest(_envelope(payload))


def fingerprint_fields(fields: Mapping[str, object]) -> str:
    """:func:`fingerprint` of a payload with string keys whose values
    are canonical already, without walking them again.

    A value is canonical when :func:`canonical` would give back the
    same JSON: a str, int, float, bool or ``None``, a list or tuple of
    canonical values, or a dict :func:`canonical` returned.  The JSON
    encoder writes a tuple as an array, as :func:`canonical` writes it
    after making it a list, so the digest is the same.
    """
    return _digest({"schema": STORE_SCHEMA_VERSION,
                    "payload": {_key_token(key): value
                                for key, value in fields.items()}})


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

    @staticmethod
    def fingerprint(payload: Mapping) -> str:
        """Expose :func:`fingerprint` on the class for convenience."""
        return fingerprint(payload)

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
        :meth:`path_for`.  A per-entry file wins over a pack.
        """
        path = self.path_for(kind, payload, key)
        with self.tracer.span("store.get", kind=kind,
                              fingerprint=path.stem) as span:
            artifact = self._read(path)
            if artifact is None:
                artifact = self._packed(kind).get(path.stem)
            hit = artifact is not None
            span.set(hit=hit)
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
            if self.metrics is not None:
                name = "store_hits" if hit else "store_misses"
                self.metrics.counter(name).inc()
        return artifact

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
        """Every packed entry of ``kind``, {fingerprint: artifact}: loaded
        once, reloaded when the directory's ``st_mtime_ns`` changes (a
        stale view can only miss).  An unreadable pack adds nothing."""
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
        packed = path.name.startswith(PACK_PREFIX)
        return len(self._read(path) or ()) if packed else 1

    def put(self, kind: str, payload: Mapping, artifact: object,
            key: Optional[str] = None) -> Path:
        """Persist ``artifact`` under ``payload``'s fingerprint.

        Both the pickle and its ``.json`` sidecar go through
        :func:`_atomic_write`, so a crashed run never leaves a
        half-written pickle *or* a truncated sidecar next to a valid
        one.  ``payload`` is canonicalised once, for the sidecar and
        (unless ``key``, its precomputed fingerprint, is given) the hash.
        """
        envelope = _envelope(payload)
        path = self.path_for(kind, payload,
                             key if key is not None else _digest(envelope))

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
        inventory, not just the populated corners.
        """
        kinds: Dict[str, Dict[str, int]] = {
            name: {"entries": 0, "bytes": 0} for name in KINDS}
        total_bytes = 0
        for path in self.entries():
            size = path.stat().st_size
            entry = kinds[path.parent.name]
            entry["entries"] += self._count(path)
            entry["bytes"] += size
            total_bytes += size
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "kinds": kinds,
            "entries": sum(k["entries"] for k in kinds.values()),
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

