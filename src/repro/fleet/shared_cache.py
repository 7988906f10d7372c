"""The fleet's shared artifact-cache tier over one content-addressed spill dir.

There is deliberately no cache *server* in the fleet: the shared tier **is**
the PR-2/PR-6 disk spill, pointed at one directory by every worker and
flipped to write-through (``--spill-write-through``), so an artifact computed
by worker 1 is a warm disk hit on worker 2.  Correctness needs no lock
manager, because the spill was built content-addressed and crash-safe:

* keys are fingerprints of the inputs, so two workers writing one key are
  writing byte-identical payloads -- the atomic ``os.replace`` makes either
  writer a correct winner and readers never observe a torn file;
* every file carries the checksummed envelope, so a reader racing a writer
  on a non-atomic filesystem quarantines and recomputes instead of serving
  garbage.

This module is the tier's *control plane*: :class:`SharedCacheTier` inspects
the directory (per-cache file counts, bytes, quarantines) for the router's
``/health``, and :func:`aggregate_cache_stats` folds per-worker cache
counters into per-tier totals -- memory hits vs. shared-disk hits vs. misses
-- so cross-worker reuse is observable, not just hoped for.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

#: The artifact caches that participate in the shared tier (the service's
#: spillable caches; ``plans`` opts out -- it holds live database references).
SHARED_TIERS = (
    "provenance", "stats", "features", "candidates", "problem", "report", "solutions",
)


class SharedCacheTier:
    """One shared spill directory serving every worker of a fleet."""

    def __init__(self, directory: str | Path | None = None):
        if directory is None:
            self._owned = tempfile.TemporaryDirectory(prefix="repro-fleet-cache-")
            directory = self._owned.name
        else:
            self._owned = None
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def cleanup(self) -> None:
        """Remove the directory iff this tier created it (owned temp dirs)."""
        if self._owned is not None:
            self._owned.cleanup()

    def describe(self) -> dict:
        """JSON-safe on-disk snapshot: per-tier artifact counts and bytes."""
        tiers: dict[str, dict] = {}
        corrupt = 0
        orphaned_tmp = 0
        tombstones = 0
        for path in self.directory.iterdir():
            name = path.name
            if name.endswith(".corrupt"):
                corrupt += 1
                continue
            if name.endswith(".tmp"):
                orphaned_tmp += 1
                continue
            if name.endswith(".tomb"):
                tombstones += 1
                continue
            if not name.endswith(".pkl"):
                continue
            tier = name.split("-", 1)[0]
            slot = tiers.setdefault(tier, {"artifacts": 0, "bytes": 0})
            slot["artifacts"] += 1
            slot["bytes"] += path.stat().st_size
        return {
            "directory": str(self.directory),
            "tiers": tiers,
            "artifacts": sum(slot["artifacts"] for slot in tiers.values()),
            "bytes": sum(slot["bytes"] for slot in tiers.values()),
            "quarantined": corrupt,
            "orphaned_tmp": orphaned_tmp,
            "tombstones": tombstones,
        }


def aggregate_cache_stats(worker_cache_stats: list[dict]) -> dict:
    """Fold per-worker ``caches`` stats into per-tier fleet totals.

    Input: each worker's ``stats()["caches"]`` mapping (cache name ->
    counter dict).  Output distinguishes the three levels of the hierarchy:
    ``memory_hits`` (own LRU), ``shared_disk_hits`` (``spill_loads`` -- an
    artifact found in the shared tier, possibly computed by a sibling) and
    ``misses`` (computed from scratch).  Note the service counts a spill
    load as a hit *and* a spill load, so memory hits are reported net.
    """
    tiers: dict[str, dict] = {}
    for caches in worker_cache_stats:
        for name, stats in caches.items():
            slot = tiers.setdefault(
                name,
                {
                    "memory_hits": 0,
                    "shared_disk_hits": 0,
                    "misses": 0,
                    "spill_writes": 0,
                    "spill_errors": 0,
                },
            )
            spill_loads = stats.get("spill_loads", 0)
            slot["memory_hits"] += stats.get("hits", 0) - spill_loads
            slot["shared_disk_hits"] += spill_loads
            slot["misses"] += stats.get("misses", 0)
            slot["spill_writes"] += stats.get("spill_writes", 0)
            slot["spill_errors"] += stats.get("spill_errors", 0)
    totals = {
        key: sum(slot[key] for slot in tiers.values())
        for key in (
            "memory_hits", "shared_disk_hits", "misses",
            "spill_writes", "spill_errors",
        )
    }
    return {"tiers": tiers, "total": totals}
