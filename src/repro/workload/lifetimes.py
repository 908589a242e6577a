"""Peer session-time (lifetime) model.

The paper draws lifetimes "randomly from this sample" of Gnutella session
times measured by Saroiu et al. [18], optionally scaled by
``LifespanMultiplier`` (paper Section 5.1).  The trace itself is not
available, so we regenerate a synthetic sample from the published summary
statistics of that study: the median Gnutella session was around one hour,
with a heavy right tail (some peers stay for days) and a large mass of
very short sessions.  A log-normal with median 3600 s and sigma 1.4
matches those facts; the synthetic sample is then wrapped in the same
"draw from a sample" machinery (:class:`EmpiricalSampler`) the paper
describes, so swapping in a real trace later is a one-liner.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Optional, Sequence

from repro.errors import WorkloadError
from repro.workload.distributions import EmpiricalSampler, LogNormalSampler

#: Median Gnutella session time reported by Saroiu et al. (~60 minutes).
DEFAULT_MEDIAN_LIFETIME_S = 3600.0

#: Log-normal shape reproducing the measured heavy tail.
DEFAULT_SIGMA = 1.4

#: Size of the synthetic "measured sample" the model resamples from.
DEFAULT_SAMPLE_SIZE = 10_000

#: Floor on session length; sub-10s sessions churn faster than any protocol
#: timer in the paper and only add noise.
MIN_LIFETIME_S = 10.0


def synthesize_lifetime_sample(size: int = DEFAULT_SAMPLE_SIZE) -> list[float]:
    """Generate the synthetic stand-in for the [18] session-time trace.

    The sample is produced from its own fixed-seed stream so that every
    simulation run resamples from the *same* synthetic trace, exactly as
    the paper resamples from the same measured trace.
    """
    if size < 1:
        raise WorkloadError(f"sample size must be >= 1, got {size}")
    sampler = LogNormalSampler(median=DEFAULT_MEDIAN_LIFETIME_S, sigma=DEFAULT_SIGMA)
    rng = random.Random(0x5A601)
    return [max(MIN_LIFETIME_S, sampler.sample(rng)) for _ in range(size)]


@cache
def _default_trace() -> EmpiricalSampler:
    """The synthetic trace's sampler, built once per process on first use."""
    return EmpiricalSampler(synthesize_lifetime_sample())


class LifetimeModel:
    """Draws peer lifetimes, honouring ``LifespanMultiplier``.

    Args:
        multiplier: the paper's ``LifespanMultiplier``; every drawn value
            is multiplied by it (e.g. 0.2 in the cache-size experiments to
            stress maintenance).
        sample: the session-time trace to resample from.  Defaults to the
            synthetic Saroiu-like sample.

    Example::

        model = LifetimeModel(multiplier=0.2)
        t = model.sample(rng_registry.stream("lifetimes"))
    """

    def __init__(
        self,
        multiplier: float = 1.0,
        sample: Optional[Sequence[float]] = None,
    ) -> None:
        if multiplier <= 0:
            raise WorkloadError(f"LifespanMultiplier must be > 0, got {multiplier}")
        self.multiplier = float(multiplier)
        if sample is not None and any(v <= 0 for v in sample):
            raise WorkloadError("lifetimes must be positive")
        self._sampler = _default_trace() if sample is None else EmpiricalSampler(sample)

    def sample(self, rng: random.Random) -> float:
        """Draw one lifetime in seconds (scaled by the multiplier)."""
        return self._sampler.sample(rng) * self.multiplier
