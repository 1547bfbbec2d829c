"""Content-addressed cache for built feature/label arrays, with disk spill.

Feature-map construction is the glue between the radar substrate and the
training stack, and the experiment drivers rebuild the same splits many
times (baseline vs FUSE, per-fusion-setting sweeps, repeated evaluation
sets).  :class:`FeatureCache` memoizes ``(features, labels)`` arrays keyed by
a content hash of the builder configuration and the exact point/label data,
so any change to either — a different grid range, a different normalization,
a regenerated dataset — invalidates the entry automatically.

The in-memory tier is bounded (LRU eviction) and returns read-only array
views so a cache hit can never be corrupted by a caller mutating the result
in place.  An optional on-disk tier (``cache_dir``) persists entries as
``<content-hash>.npz`` files for cross-process and cross-run reuse: a miss in
memory falls through to disk before rebuilding, writes are atomic
(temp-file + rename) so concurrent processes can share one directory, and the
directory is bounded by least-recently-used eviction.  A disk entry that
cannot be read is removed, counted as ``disk_corrupt`` and logged once as a
JSON warning on the ``repro.dataset.cache`` logger; a disk write that fails
is counted as ``disk_write_failed`` and logged the same way (the build is
still returned and kept in memory).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .features import FeatureMapBuilder
from .sample import LabelledFrame

__all__ = ["CacheStats", "FeatureCache"]

_log = logging.getLogger(__name__)

#: Age after which an orphaned spill temp file is reclaimed by eviction.
_STALE_TEMP_SECONDS = 3600.0


@dataclass
class CacheStats:
    """Counters describing cache effectiveness.

    ``hits`` counts in-memory hits, ``disk_hits`` entries recovered from the
    on-disk tier, ``misses`` full rebuilds, ``disk_corrupt`` unreadable
    disk entries that were dropped (each then rebuilds as a miss), and
    ``disk_write_failed`` builds that could not be spilled to disk.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_evictions: int = 0
    disk_corrupt: int = 0
    disk_write_failed: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        return (self.hits + self.disk_hits) / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_evictions": self.disk_evictions,
            "disk_corrupt": self.disk_corrupt,
            "disk_write_failed": self.disk_write_failed,
            "hit_rate": self.hit_rate,
        }


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


class FeatureCache:
    """LRU cache of built feature maps keyed by content hash.

    Parameters
    ----------
    capacity:
        Maximum number of cached datasets.  Each entry holds the full
        ``(features, labels)`` arrays of one build, so the capacity bounds
        memory as ``capacity * dataset size``.
    cache_dir:
        Optional directory of the persistent tier.  When given, every build
        is spilled to ``<key>.npz`` and misses in memory try disk before
        rebuilding, so parallel workers and later runs share the work.
    disk_capacity:
        Maximum number of ``.npz`` entries kept on disk; least recently used
        files (by access time) are removed beyond it.
    """

    def __init__(
        self,
        capacity: int = 16,
        cache_dir: Optional[Union[str, Path]] = None,
        disk_capacity: int = 64,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if disk_capacity < 1:
            raise ValueError("disk_capacity must be >= 1")
        self.capacity = capacity
        self.disk_capacity = disk_capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._entries: "OrderedDict[str, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def builder_fingerprint(builder: FeatureMapBuilder) -> str:
        """Stable fingerprint of every field that affects the built features."""
        return repr(builder)

    def key_for(
        self, samples: Sequence[LabelledFrame], builder: FeatureMapBuilder
    ) -> str:
        """Content hash of the builder configuration plus the exact inputs."""
        digest = hashlib.sha256()
        digest.update(self.builder_fingerprint(builder).encode())
        digest.update(str(len(samples)).encode())
        for sample in samples:
            points = np.ascontiguousarray(sample.cloud.points)
            digest.update(points.shape[0].to_bytes(4, "little"))
            digest.update(points.tobytes())
            digest.update(np.ascontiguousarray(sample.joints).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Lookup / build
    # ------------------------------------------------------------------
    def get_or_build(
        self,
        samples: Iterable[LabelledFrame],
        builder: FeatureMapBuilder,
        rng: Optional[np.random.Generator] = None,
        workers: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return cached ``(features, labels)`` or build and remember them.

        Builds that depend on runtime randomness (the ``"random"`` selection
        mode with a caller-supplied generator) bypass the cache entirely —
        caching them would freeze one random draw forever.  ``workers``
        shards a cache-missing (rng-free) build over a process pool; sharded
        builds are bitwise identical to serial ones, so the cache key is
        unaffected.
        """
        sample_list = list(samples)
        if builder.selection == "random" and rng is not None:
            self.stats.misses += 1
            return builder.build_dataset(sample_list, rng=rng)

        key = self.key_for(sample_list, builder)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            features, labels = self._entries[key]
            return features, labels

        loaded = self._load_from_disk(key)
        if loaded is not None:
            self.stats.disk_hits += 1
            features, labels = _readonly(loaded[0]), _readonly(loaded[1])
            self._remember(key, features, labels)
            return features, labels

        self.stats.misses += 1
        if rng is None:
            from .loader import build_features_sharded

            features, labels = build_features_sharded(sample_list, builder, workers=workers)
        else:
            features, labels = builder.build_dataset(sample_list, rng=rng)
        features, labels = _readonly(features), _readonly(labels)
        self._remember(key, features, labels)
        self._spill_to_disk(key, features, labels)
        return features, labels

    def _remember(self, key: str, features: np.ndarray, labels: np.ndarray) -> None:
        self._entries[key] = (features, labels)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[Path]:
        return None if self.cache_dir is None else self.cache_dir / f"{key}.npz"

    def _load_from_disk(self, key: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with np.load(path) as archive:
                features, labels = archive["features"], archive["labels"]
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as error:
            # A torn or foreign file is treated as a miss and removed so it
            # cannot poison later lookups.
            self._drop_corrupt(path, error)
            return None
        try:
            os.utime(path)  # refresh the LRU clock of the disk tier
        except OSError:
            pass
        return features, labels

    def _drop_corrupt(self, path: Path, reason: Exception) -> None:
        """Remove an unreadable disk entry, count it and log one JSON warning
        (``event``, ``path``, ``reason``); a failed removal is reported in the
        same line as ``unlink_error``."""
        self.stats.disk_corrupt += 1
        entry = {
            "event": "feature_cache_corrupt",
            "path": str(path),
            "reason": f"{type(reason).__name__}: {reason}",
        }
        try:
            path.unlink()
        except OSError as exc:
            entry["unlink_error"] = f"{type(exc).__name__}: {exc}"
        _log.warning(json.dumps(entry))

    def _spill_to_disk(self, key: str, features: np.ndarray, labels: np.ndarray) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        temp = path.with_suffix(f".tmp-{os.getpid()}")
        try:
            with open(temp, "wb") as handle:
                np.savez(handle, features=features, labels=labels)
            os.replace(temp, path)  # atomic: readers never see a torn entry
        except OSError as error:
            # The build is still served from memory; count and log the lost
            # disk entry once (``event``, ``path``, ``reason``).
            self.stats.disk_write_failed += 1
            entry = {
                "event": "feature_cache_write_failed",
                "path": str(path),
                "reason": f"{type(error).__name__}: {error}",
            }
            _log.warning(json.dumps(entry))
            try:
                temp.unlink()
            except OSError:
                pass
            return
        self._evict_disk()

    def _evict_disk(self) -> None:
        assert self.cache_dir is not None
        try:
            entries = sorted(
                self.cache_dir.glob("*.npz"), key=lambda p: p.stat().st_mtime
            )
            stale_temps = [
                temp
                for temp in self.cache_dir.glob("*.tmp-*")
                if time.time() - temp.stat().st_mtime > _STALE_TEMP_SECONDS
            ]
        except OSError:
            return
        # Temp files orphaned by a killed writer would otherwise accumulate
        # forever (eviction only counts finished .npz entries).
        for temp in stale_temps:
            try:
                temp.unlink()
            except OSError:
                pass
        while len(entries) > self.disk_capacity:
            oldest = entries.pop(0)
            try:
                oldest.unlink()
                self.stats.disk_evictions += 1
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        self._entries.clear()
        self.stats = CacheStats()
