"""Content-addressed artifact caching for the explanation service.

Every cached artifact is addressed by a *fingerprint*: a stable hash of the
content that produced it (databases, queries, attribute matches, pipeline
configuration).  Identical inputs therefore share one cache entry no matter
how many requests reference them, and any change to an input changes its
fingerprint, so stale artifacts can never be served.

:class:`ArtifactCache` is a thread-safe LRU map with hit/miss/eviction
statistics and an optional disk spill directory: entries evicted from memory
are pickled to disk and transparently reloaded on the next request, which
keeps warm-cache behaviour across memory pressure (and, for picklable
artifacts, across processes).

The spill tier is **crash-safe**: files are written to a temporary name and
atomically renamed into place (a ``kill -9`` mid-write can never leave a
half-written file under the final name), and every file carries a checksummed
envelope (magic + sha256 + length).  A corrupt or truncated file -- torn
write on a non-atomic filesystem, bit rot, version skew -- is *quarantined*
(renamed to ``*.corrupt``), counted in :attr:`CacheStats.spill_errors` and
treated as an ordinary miss, so a warm cache is never worse than a cold one.

With ``write_through=True`` the spill directory doubles as a **shared
cross-process tier**: every ``put`` is persisted eagerly (not only on
eviction), so a second service instance pointed at the same directory reads
artifacts the first one computed.  No file lock is needed -- keys are content
fingerprints, so concurrent writers of one key produce byte-identical
payloads and the atomic rename makes either write a correct winner.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.reliability.faults import FAULTS

_MISSING = object()

logger = logging.getLogger(__name__)

#: Spill envelope: magic + format version, a sha256 of the pickled payload,
#: and the payload length -- enough to reject truncation, corruption and
#: incompatible formats before unpickling a single byte.
_SPILL_MAGIC = b"RSPILL1\n"
_DIGEST_BYTES = 32
_LENGTH_BYTES = 8


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

def _canonical(value) -> object:
    """A deterministic, order-independent description of a value.

    Dicts are sorted by key, sets by repr; dataclasses are expanded field by
    field; objects exposing their own ``fingerprint()`` delegate to it.
    Everything else falls back to ``repr`` (deterministic for the value types
    that flow through the pipeline: str, numbers, tuples, enums).
    """
    if type(value) is str:  # the most common part (fingerprints, names): skip the probes
        return repr(value)
    fingerprint_method = getattr(value, "fingerprint", None)
    if callable(fingerprint_method) and not isinstance(value, type):
        return value.fingerprint()
    if is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple((f.name, _canonical(getattr(value, f.name))) for f in fields(value)),
        )
    if isinstance(value, dict):
        return tuple(
            (repr(key), _canonical(item)) for key, item in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(_canonical(item)) for item in value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    return repr(value)


class EncodedPart:
    """A key part canonicalized once, for reuse in many :func:`fingerprint_of` keys.

    ``fingerprint_of(EncodedPart(x), ...)`` equals ``fingerprint_of(x, ...)``
    bit for bit; the part's canonical form is just not recomputed per key.
    Only a top-level part is recognized (nested in a tuple it is not).
    """

    __slots__ = ("data",)

    def __init__(self, part):
        self.data = repr(_canonical(part)).encode()


def fingerprint_of(*parts) -> str:
    """A stable sha256 fingerprint of arbitrary (canonicalizable) parts."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, EncodedPart):
            digest.update(part.data)
        else:
            digest.update(repr(_canonical(part)).encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The LRU artifact cache
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Counters of one artifact cache (all monotonically increasing)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    spill_writes: int = 0
    spill_loads: int = 0
    spill_errors: int = 0
    invalidations: int = 0
    rewires: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "spill_writes": self.spill_writes,
            "spill_loads": self.spill_loads,
            "spill_errors": self.spill_errors,
            "invalidations": self.invalidations,
            "rewires": self.rewires,
            "hit_rate": round(self.hit_rate, 4),
        }


class ArtifactCache:
    """A thread-safe LRU cache of content-addressed artifacts.

    ``max_entries`` bounds the in-memory entry count; evicted entries are
    optionally spilled to ``spill_dir`` (pickle files named by fingerprint)
    and reloaded on demand.  Artifacts that fail to pickle are simply dropped
    on eviction -- the cache is an accelerator, never a source of truth.
    """

    def __init__(
        self,
        name: str,
        *,
        max_entries: int = 128,
        spill_dir: str | Path | None = None,
        write_through: bool = False,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self.write_through = write_through
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.RLock()

    # -- core protocol ------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries.keys())

    def get(self, key: str, default=None):
        """The cached artifact for ``key``, or ``default`` (counts hit/miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            spilled = self._load_spill(key)
            if spilled is not _MISSING:
                self.stats.hits += 1
                self.stats.spill_loads += 1
                self._insert(key, spilled)
                return spilled
            self.stats.misses += 1
            return default

    def peek(self, key: str, default=None):
        """The cached artifact for ``key``, or ``default``, as bookkeeping reads it.

        Unlike :meth:`get` it counts no hit or miss and leaves the LRU order
        alone, so internal reads (ingest rewiring) never show up as traffic.
        A spilled entry is still read from disk, but not loaded into memory.
        """
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            spilled = self._load_spill(key)
            return default if spilled is _MISSING else spilled

    def put(self, key: str, value) -> None:
        with self._lock:
            self._insert(key, value)
            if self.write_through:
                # Persist eagerly so other processes sharing the spill
                # directory see this artifact without waiting for an
                # eviction here.
                self._write_spill(key, value)

    def get_or_compute(self, key: str, factory: Callable[[], object]):
        """Return the cached artifact, computing and caching it on a miss.

        The factory runs outside the lock, so a slow computation never blocks
        readers of other keys; concurrent misses of the *same* key may compute
        twice (both produce identical content-addressed results -- the second
        insert is a no-op overwrite).
        """
        sentinel = self.get(key, _MISSING)
        if sentinel is not _MISSING:
            return sentinel
        value = factory()
        self.put(key, value)
        return value

    def evict(self, key: str) -> bool:
        """Drop one entry from memory, spilling it when a spill directory is set.

        This is what an LRU eviction does.  Unlike :meth:`invalidate` it
        writes no tombstone: the content behind ``key`` stays valid, so a
        spilled entry is served again if its key becomes reachable again.
        Returns True when the entry was in memory.
        """
        with self._lock:
            value = self._entries.pop(key, _MISSING)
            if value is _MISSING:
                return False
            self.stats.evictions += 1
            self._write_spill(key, value)
            return True

    def invalidate(self, key: str) -> bool:
        """Evict one key everywhere: memory, disk, and sibling processes.

        Used by delta-aware ingest for artifacts whose content actually
        changed.  Beyond dropping the local entry and its spill file, a
        **tombstone** marker (``<name>-<key>.pkl.tomb``) is written through to
        the spill directory: fleet siblings sharing the directory treat a
        tombstoned key as a miss and refuse to (re)spill it, so a lagging pod
        can never resurrect the stale artifact from its memory tier into the
        shared one.  Keys are content fingerprints of their full input set
        (including the database fingerprint), so a tombstoned key addresses
        permanently stale content.  Returns True when an entry or spill file
        actually existed here.
        """
        with self._lock:
            existed = self._entries.pop(key, _MISSING) is not _MISSING
            path = self._spill_path(key)
            if path is not None:
                if path.exists():
                    existed = True
                    path.unlink(missing_ok=True)
                try:
                    self._tomb_path(key).touch()
                except OSError:  # pragma: no cover - tombstone is best-effort
                    pass
            self.stats.invalidations += 1
            return existed

    def rewire(self, old_key: str, new_key: str) -> bool:
        """Re-address one entry whose content is unchanged: same bytes, new key.

        Used by delta-aware ingest for artifacts a delta provably did not
        affect: the artifact computed under the old database fingerprint is
        byte-identical under the new one, so it moves instead of being
        recomputed.  On disk the move is an atomic rename (the artifact is
        never missing under both names); an entry living only in memory is
        written through under the new key first, so sharing siblings see the
        rewired artifact.  Returns True when an entry was actually moved.
        """
        if old_key == new_key:
            return False
        with self._lock:
            value = self._entries.pop(old_key, _MISSING)
            old_path, new_path = self._spill_path(old_key), self._spill_path(new_key)
            if new_path is not None:
                # The new address is legitimately live again; clear any
                # tombstone so the rewired artifact can spill there.
                self._tomb_path(new_key).unlink(missing_ok=True)
            moved = False
            if old_path is not None and old_path.exists():
                try:
                    if new_path.exists():
                        old_path.unlink(missing_ok=True)
                    else:
                        os.replace(old_path, new_path)
                    moved = True
                except OSError:
                    pass
            if value is not _MISSING:
                self._insert(new_key, value)
                if self.write_through and not moved:
                    self._write_spill(new_key, value)
                moved = True
            if moved:
                self.stats.rewires += 1
            return moved

    def flush(self) -> int:
        """Persist every in-memory entry to the spill directory; returns count.

        Used by graceful shutdown: a drained daemon flushes its hot entries
        so a successor process (or a fleet sibling sharing the directory)
        starts warm.  A cache without a spill directory flushes nothing.
        Entries whose spill file already exists are skipped for free
        (content-addressed keys), so repeated flushes are idempotent.
        """
        with self._lock:
            if self.spill_dir is None:
                return 0
            before = self.stats.spill_writes
            for key, value in list(self._entries.items()):
                self._write_spill(key, value)
            return self.stats.spill_writes - before

    def clear(self) -> None:
        """Drop all entries, including this cache's spill files on disk.

        Leaving spill files behind would make "cleared" entries transparently
        reappear on the next ``get``.
        """
        with self._lock:
            self._entries.clear()
            if self.spill_dir is not None:
                for pattern in (
                    f"{self.name}-*.pkl",
                    f"{self.name}-*.pkl.corrupt",
                    f"{self.name}-*.pkl.tomb",
                    f".{self.name}-*.tmp",
                ):
                    for path in self.spill_dir.glob(pattern):
                        path.unlink(missing_ok=True)

    # -- internals ----------------------------------------------------------------
    def _insert(self, key: str, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self.evict(next(iter(self._entries)))

    def _spill_path(self, key: str) -> Optional[Path]:
        if self.spill_dir is None:
            return None
        return self.spill_dir / f"{self.name}-{key}.pkl"

    def _tomb_path(self, key: str) -> Path:
        return self.spill_dir / f"{self.name}-{key}.pkl.tomb"

    def _write_spill(self, key: str, value) -> None:
        """Spill one evicted entry to disk: envelope + atomic rename.

        The temporary file lives in the same directory (so ``os.replace`` is
        a same-filesystem atomic rename); a crash at any point leaves either
        the previous file or an orphaned ``.tmp`` -- never a torn final file.
        Failures of any kind (unpicklable artifact, full disk, injected
        fault) drop the entry: the cache is an accelerator, never a source
        of truth.
        """
        path = self._spill_path(key)
        if path is None:
            return
        if self._tomb_path(key).exists():
            # The key was invalidated through the shared tier; re-spilling it
            # would resurrect a stale artifact for every sharing sibling.
            return
        if path.exists():
            # Keys are content fingerprints: an existing file for this key
            # already holds exactly this value (written by us earlier, or by
            # another process sharing the directory).  Skipping the rewrite
            # keeps write-through puts and re-evictions cheap.
            return
        tmp_path = path.parent / f".{self.name}-{uuid.uuid4().hex}.tmp"
        try:
            FAULTS.check("cache.spill_write")
            payload = pickle.dumps(value)
            payload = FAULTS.corrupt("cache.spill_write", payload)
            envelope = (
                _SPILL_MAGIC
                + hashlib.sha256(payload).digest()
                + len(payload).to_bytes(_LENGTH_BYTES, "big")
                + payload
            )
            tmp_path.write_bytes(envelope)
            os.replace(tmp_path, path)
            self.stats.spill_writes += 1
        except Exception as exc:
            self.stats.spill_errors += 1
            logger.warning(
                "cache %s: dropping spill of %s (%s: %s)",
                self.name, key[:12], type(exc).__name__, exc,
            )
            tmp_path.unlink(missing_ok=True)

    def _decode_spill(self, raw: bytes):
        """Unwrap one spill envelope; raises ``ValueError`` on any damage."""
        if not raw.startswith(_SPILL_MAGIC):
            raise ValueError("bad spill magic (foreign or pre-envelope file)")
        header_end = len(_SPILL_MAGIC) + _DIGEST_BYTES + _LENGTH_BYTES
        if len(raw) < header_end:
            raise ValueError("truncated spill header")
        digest = raw[len(_SPILL_MAGIC):len(_SPILL_MAGIC) + _DIGEST_BYTES]
        length = int.from_bytes(raw[len(_SPILL_MAGIC) + _DIGEST_BYTES:header_end], "big")
        payload = raw[header_end:]
        if len(payload) != length:
            raise ValueError(f"truncated spill payload ({len(payload)} of {length} bytes)")
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("spill checksum mismatch")
        return pickle.loads(payload)

    def _load_spill(self, key: str):
        """Load a spilled entry; every failure quarantines the file and misses.

        Quarantine renames the file to ``*.corrupt`` (preserved for
        post-mortems, invisible to future loads) rather than deleting it, and
        the read is counted in ``spill_errors`` -- a corrupt spill must never
        raise out of :meth:`get`.
        """
        path = self._spill_path(key)
        if path is None or not path.exists():
            return _MISSING
        if self._tomb_path(key).exists():
            # Invalidated via the shared tier (possibly by another process):
            # a plain miss, even if a stale spill file still lingers.
            return _MISSING
        try:
            FAULTS.check("cache.spill_load")
            return self._decode_spill(path.read_bytes())
        except Exception as exc:
            self.stats.spill_errors += 1
            logger.warning(
                "cache %s: quarantining corrupt spill %s (%s: %s)",
                self.name, path.name, type(exc).__name__, exc,
            )
            try:
                os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
            except OSError:
                path.unlink(missing_ok=True)
            return _MISSING


class CacheRegistry:
    """The named artifact caches of one service instance, with combined stats."""

    def __init__(
        self,
        *,
        max_entries: int = 128,
        spill_dir: str | Path | None = None,
        write_through: bool = False,
    ):
        self.max_entries = max_entries
        self.spill_dir = spill_dir
        self.write_through = write_through
        self._caches: dict[str, ArtifactCache] = {}
        self._lock = threading.Lock()

    def cache(
        self, name: str, *, max_entries: int | None = None, spill: bool = True
    ) -> ArtifactCache:
        """Get or create a named cache.

        ``spill=False`` opts the cache out of the registry's disk spill --
        for artifacts that are cheap to recompute but expensive to pickle
        (e.g. compiled plans, which hold a reference to their database).
        """
        with self._lock:
            if name not in self._caches:
                self._caches[name] = ArtifactCache(
                    name,
                    max_entries=max_entries or self.max_entries,
                    spill_dir=self.spill_dir if spill else None,
                    write_through=self.write_through and spill,
                )
            return self._caches[name]

    def caches(self) -> Iterable[ArtifactCache]:
        with self._lock:
            return list(self._caches.values())

    def stats(self) -> dict:
        """Per-cache and aggregate counters, JSON-safe."""
        per_cache = {cache.name: cache.stats.as_dict() for cache in self.caches()}
        totals = CacheStats()
        for cache in self.caches():
            totals.hits += cache.stats.hits
            totals.misses += cache.stats.misses
            totals.evictions += cache.stats.evictions
            totals.spill_writes += cache.stats.spill_writes
            totals.spill_loads += cache.stats.spill_loads
            totals.spill_errors += cache.stats.spill_errors
            totals.invalidations += cache.stats.invalidations
            totals.rewires += cache.stats.rewires
        return {"caches": per_cache, "total": totals.as_dict()}

    def flush(self) -> int:
        """Persist every cache's in-memory entries to disk; returns total written."""
        return sum(cache.flush() for cache in self.caches())

    def clear(self) -> None:
        for cache in self.caches():
            cache.clear()
