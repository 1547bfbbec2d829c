"""Content-addressed cache for built feature/label arrays.

Feature-map construction is the glue between the radar substrate and the
training stack, and the experiment drivers rebuild the same splits many
times (baseline vs FUSE, per-fusion-setting sweeps, repeated evaluation
sets).  :class:`FeatureCache` memoizes ``(features, labels)`` arrays keyed by
a content hash of the builder configuration and the exact point/label data,
so any change to either — a different grid range, a different normalization,
a regenerated dataset — invalidates the entry automatically.

The cache is in-memory and bounded (LRU eviction), and it returns read-only
array views so a cache hit can never be corrupted by a caller mutating the
result in place.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .features import FeatureMapBuilder
from .sample import LabelledFrame

__all__ = ["CacheStats", "FeatureCache"]


@dataclass
class CacheStats:
    """Counters describing cache effectiveness: ``hits`` are lookups served
    from memory, ``misses`` full rebuilds, ``evictions`` entries dropped by
    the LRU bound."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

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
            "hit_rate": self.hit_rate,
        }


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


class FeatureCache:
    """LRU cache of built feature maps keyed by content hash.

    ``capacity`` is the maximum number of cached datasets.  Each entry holds
    the full ``(features, labels)`` arrays of one build, so the capacity
    bounds memory as ``capacity * dataset size``.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
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
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return cached ``(features, labels)`` or build and remember them.

        Builds that depend on runtime randomness (the ``"random"`` selection
        mode with a caller-supplied generator) bypass the cache entirely —
        caching them would freeze one random draw forever.
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

        self.stats.misses += 1
        features, labels = builder.build_dataset(sample_list, rng=rng)
        features, labels = _readonly(features), _readonly(labels)
        self._remember(key, features, labels)
        return features, labels

    def _remember(self, key: str, features: np.ndarray, labels: np.ndarray) -> None:
        self._entries[key] = (features, labels)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

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
