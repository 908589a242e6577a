"""Shared-file-count model.

The paper assigns each peer a number of shared files "according to the
distribution of files measured by [18] over Gnutella" (Section 5.1).  The
published headline facts of that measurement are:

* roughly a quarter of peers share **no files at all** (free riders);
* among sharers the distribution is heavy-tailed — most share a few dozen
  files, while a small minority (~7%) serve the majority of all content.

We reproduce that shape with a mixture: with probability ``free_rider_p``
a peer shares 0 files; otherwise its library size is log-normal (body)
with a bounded-Pareto tail grafted on for the largest sharers.  The
``NumFiles`` cache-entry field and the MFS/LFS policies read these values
directly, so only the skew matters for the experiments — which the mixture
preserves.
"""

from __future__ import annotations

import random

from repro.errors import WorkloadError
from repro.workload.distributions import BoundedParetoSampler, LogNormalSampler

#: Fraction of peers sharing nothing (Saroiu et al. report ~25%).
DEFAULT_FREE_RIDER_P = 0.25

#: Median library size among sharers.
DEFAULT_MEDIAN_FILES = 100.0

#: Log-normal body shape.
DEFAULT_SIGMA = 1.2

#: Fraction of sharers drawn from the Pareto tail instead of the body.
DEFAULT_TAIL_P = 0.07

#: Tail parameters: heavy (alpha ~1) between 1k and 50k files.
DEFAULT_TAIL_ALPHA = 1.0
DEFAULT_TAIL_LOWER = 1_000.0
DEFAULT_TAIL_UPPER = 50_000.0


class FileCountModel:
    """Samples per-peer shared-file counts.

    Args:
        free_rider_p: probability a peer shares zero files.
        median_files: median library size among sharers (body).
        sigma: log-normal body shape.
        tail_p: probability a sharer is drawn from the Pareto tail.
        tail_alpha / tail_lower / tail_upper: bounded-Pareto tail.

    Example::

        model = FileCountModel()
        n = model.sample(rng)   # 0 for free riders, else >= 1
    """

    def __init__(
        self,
        free_rider_p: float = DEFAULT_FREE_RIDER_P,
        median_files: float = DEFAULT_MEDIAN_FILES,
        sigma: float = DEFAULT_SIGMA,
        tail_p: float = DEFAULT_TAIL_P,
        tail_alpha: float = DEFAULT_TAIL_ALPHA,
        tail_lower: float = DEFAULT_TAIL_LOWER,
        tail_upper: float = DEFAULT_TAIL_UPPER,
    ) -> None:
        if not 0.0 <= free_rider_p < 1.0:
            raise WorkloadError(
                f"free_rider_p must be in [0, 1), got {free_rider_p}"
            )
        if not 0.0 <= tail_p < 1.0:
            raise WorkloadError(f"tail_p must be in [0, 1), got {tail_p}")
        self.free_rider_p = float(free_rider_p)
        self.tail_p = float(tail_p)
        self._body = LogNormalSampler(median=median_files, sigma=sigma)
        self._tail = BoundedParetoSampler(
            alpha=tail_alpha, lower=tail_lower, upper=tail_upper
        )

    def sample(self, rng: random.Random) -> int:
        """Draw one shared-file count (0 for free riders, else >= 1)."""
        if rng.random() < self.free_rider_p:
            return 0
        if rng.random() < self.tail_p:
            return max(1, int(round(self._tail.sample(rng))))
        return max(1, int(round(self._body.sample(rng))))
