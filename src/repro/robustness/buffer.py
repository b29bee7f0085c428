"""Bounded feedback store: recency ring + reservoir-downsampled history.

An unbounded feedback list is a slow memory leak in a service that runs
for months.  Capping it naively (keep the newest N) forgets the old
workload entirely and invites catastrophic drift on retrain; keeping a
pure uniform sample loses recency, which the drift detector needs.

:class:`FeedbackBuffer` splits its capacity: the newest samples live in a
strict FIFO ring (full fidelity over the recent window), and everything
that ages out of the ring feeds a classic Algorithm-R reservoir — a
uniform sample over the *entire* evicted history.  Total memory is
bounded by ``capacity`` while retraining still sees both the current
workload and an unbiased summary of the past.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

__all__ = ["FeedbackBuffer"]


class FeedbackBuffer:
    """Bounded store of ``(query, selectivity)`` feedback pairs.

    Parameters
    ----------
    capacity:
        Maximum number of retained pairs; ``None`` = unbounded (the
        pre-robustness behaviour).
    recent_fraction:
        Share of the capacity dedicated to the exact recency ring; the
        rest is the history reservoir.
    seed:
        Seed for the reservoir's replacement draws (deterministic
        downsampling).
    """

    def __init__(
        self,
        capacity: int | None = None,
        recent_fraction: float = 0.5,
        seed: int = 0,
    ):
        if capacity is not None and capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        if not 0.0 < recent_fraction <= 1.0:
            raise ValueError(f"recent_fraction must be in (0, 1], got {recent_fraction}")
        self.capacity = capacity
        if capacity is None:
            self._ring: deque = deque()
            self._reservoir_cap = 0
        else:
            ring_cap = max(1, int(round(capacity * recent_fraction)))
            self._reservoir_cap = capacity - ring_cap
            self._ring = deque(maxlen=ring_cap)
        self._reservoir: list[tuple] = []
        self._evicted_seen = 0  # evictions fed to the reservoir (Algorithm R's n)
        self._dropped = 0  # evictions the reservoir declined to keep
        self._total = 0
        self._rng = np.random.default_rng(seed)

    def append(self, query, selectivity: float) -> None:
        item = (query, float(selectivity))
        self._total += 1
        if self.capacity is None:
            self._ring.append(item)
            return
        evicted = self._ring[0] if len(self._ring) == self._ring.maxlen else None
        self._ring.append(item)
        if evicted is not None:
            self._absorb(evicted)

    def _absorb(self, item: tuple) -> None:
        """Algorithm R over the stream of ring evictions."""
        self._evicted_seen += 1
        if self._reservoir_cap == 0:
            self._dropped += 1
            return
        if len(self._reservoir) < self._reservoir_cap:
            self._reservoir.append(item)
            return
        slot = int(self._rng.integers(0, self._evicted_seen))
        if slot < self._reservoir_cap:
            self._dropped += 1  # a previously retained item is replaced
            self._reservoir[slot] = item
        else:
            self._dropped += 1

    def snapshot(self) -> tuple[list, np.ndarray]:
        """Current contents as ``(queries, labels)`` — history first, then
        the recency ring in arrival order."""
        items = list(self._reservoir) + list(self._ring)
        queries = [q for q, _ in items]
        labels = np.asarray([s for _, s in items], dtype=float)
        return queries, labels

    def recent(self, n: int) -> tuple[list, np.ndarray] | None:
        """The newest ``n`` pairs in arrival order, or None when the ring
        no longer holds all of them (they aged into the downsampled
        reservoir, so the exact batch cannot be reconstructed)."""
        if n <= 0:
            return [], np.zeros(0)
        if n > len(self._ring):
            return None
        items = list(self._ring)[-n:]
        queries = [q for q, _ in items]
        labels = np.asarray([s for _, s in items], dtype=float)
        return queries, labels

    def newest(self):
        """The most recently appended query, or None when empty."""
        return self._ring[-1][0] if self._ring else None

    def extend(self, pairs: Iterable[tuple]) -> None:
        for query, selectivity in pairs:
            self.append(query, selectivity)

    def __len__(self) -> int:
        return len(self._reservoir) + len(self._ring)

    @property
    def total_seen(self) -> int:
        """Pairs ever appended (retained or not)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Pairs evicted from the ring and not (or no longer) retained."""
        return self._dropped

    @property
    def downsampled(self) -> bool:
        return self._dropped > 0

    def to_dict(self) -> dict:
        """JSON-ready rendering for ``/status``."""
        return {
            "size": len(self),
            "capacity": self.capacity,
            "total_seen": self._total,
            "dropped": self._dropped,
            "downsampled": self.downsampled,
        }
