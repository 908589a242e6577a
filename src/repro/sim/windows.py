"""Per-second capacity accounting.

GUESS peers refuse probes once they have processed ``MaxProbesPerSecond``
probes within a one-second window (paper Section 5/6.3).  The simulator
timestamps every probe, so capacity accounting reduces to "how many events
landed in this second?" — :class:`BucketedRateLimiter`.
"""

from __future__ import annotations

from repro.errors import ConfigError


class BucketedRateLimiter:
    """Per-second-bucket rate limiter tolerant of out-of-order timestamps.

    Queries execute atomically at their event time but stamp their probes
    with forward-looking virtual timestamps (``t + i * probe_spacing``), so
    a target peer can legitimately observe timestamps that are not
    monotone across querying peers.  This limiter counts events into
    ``floor(time / window)`` buckets, which is insensitive to arrival
    order, and prunes buckets older than a horizon to bound memory.

    Args:
        window: bucket width in seconds (the paper's capacity is per
            one-second window).
        limit: maximum events per bucket; ``None`` disables refusal.
    """

    __slots__ = ("window", "limit", "_buckets", "_max_bucket")

    #: Number of live buckets that triggers a prune sweep.
    _PRUNE_THRESHOLD = 256

    def __init__(self, window: float = 1.0, limit: int | None = None) -> None:
        if window <= 0:
            raise ConfigError(f"window must be > 0, got {window}")
        if limit is not None and limit < 0:
            raise ConfigError(f"limit must be >= 0 or None, got {limit}")
        self.window = float(window)
        self.limit = limit
        self._buckets: dict[int, int] = {}
        self._max_bucket = -1

    def count(self, now: float) -> int:
        """Events recorded in the bucket containing ``now``."""
        return self._buckets.get(int(now / self.window), 0)

    def try_record(self, now: float) -> bool:
        """Record unless the bucket is full; True if admitted.  One frame:
        every probe a limited peer receives passes through here."""
        buckets = self._buckets
        bucket = int(now / self.window)
        count = buckets.get(bucket, 0)
        if self.limit is not None and count >= self.limit:
            return False
        buckets[bucket] = count + 1
        if bucket > self._max_bucket:
            self._max_bucket = bucket
        if len(buckets) > self._PRUNE_THRESHOLD:
            self._prune()
        return True

    def _prune(self) -> None:
        # Probe timestamps never run more than one query's span behind the
        # clock, so buckets far older than the newest are dead weight.
        horizon = self._max_bucket - self._PRUNE_THRESHOLD // 2
        self._buckets = {
            bucket: count
            for bucket, count in self._buckets.items()
            if bucket >= horizon
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BucketedRateLimiter(window={self.window}, limit={self.limit})"
