"""Reusable random samplers for workload modelling.

All samplers draw from a caller-supplied :class:`random.Random` stream so
that every consumer participates in the named-stream determinism scheme
(:mod:`repro.sim.rng`).  Samplers precompute whatever they can (e.g. the
Zipf CDF) so per-draw cost is a binary search or a couple of arithmetic
operations.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Sequence

from repro.errors import WorkloadError


class ZipfSampler:
    """Samples ranks 1..n with probability proportional to ``1 / rank**s``.

    Zipf-distributed popularity is the standard model for both file
    replication and query frequency in P2P measurement studies.  The
    sampler precomputes the cumulative distribution and draws by inverse
    transform (binary search), so each draw is O(log n).

    Args:
        n: number of ranks (>= 1).
        exponent: the Zipf skew parameter ``s`` (>= 0; 0 is uniform).
    """

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n < 1:
            raise WorkloadError(f"Zipf n must be >= 1, got {n}")
        if exponent < 0:
            raise WorkloadError(f"Zipf exponent must be >= 0, got {exponent}")
        self.n = int(n)
        self.exponent = float(exponent)
        weights = [1.0 / (rank ** exponent) for rank in range(1, n + 1)]
        total = math.fsum(weights)
        cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float round-off
        self._cdf = cdf

    def sample(self, rng: random.Random) -> int:
        """Draw a rank in ``[1, n]``."""
        return bisect.bisect_left(self._cdf, rng.random()) + 1

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``count`` i.i.d. ranks."""
        cdf = self._cdf
        rand = rng.random
        return [bisect.bisect_left(cdf, rand()) + 1 for _ in range(count)]


class LogNormalSampler:
    """Log-normal sampler parameterised by *median* and shape ``sigma``.

    Medians are how measurement papers usually report session times and
    library sizes, so the constructor takes the median directly
    (``mu = ln(median)``).

    Args:
        median: median of the distribution (> 0).
        sigma: shape parameter (> 0); larger values mean a heavier tail.
    """

    def __init__(self, median: float, sigma: float) -> None:
        if median <= 0:
            raise WorkloadError(f"median must be > 0, got {median}")
        if sigma <= 0:
            raise WorkloadError(f"sigma must be > 0, got {sigma}")
        self.median = float(median)
        self.sigma = float(sigma)
        self._mu = math.log(median)

    def sample(self, rng: random.Random) -> float:
        """Draw one positive value."""
        return rng.lognormvariate(self._mu, self.sigma)


class BoundedParetoSampler:
    """Pareto sampler truncated to ``[lower, upper]`` by inverse transform.

    Used for the heavy tail of the shared-file-count model: a small
    fraction of peers share enormous libraries, but the simulator needs a
    finite upper bound to stay well-behaved.

    Args:
        alpha: tail index (> 0); smaller is heavier.
        lower: inclusive lower bound (> 0).
        upper: inclusive upper bound (> lower).
    """

    def __init__(self, alpha: float, lower: float, upper: float) -> None:
        if alpha <= 0:
            raise WorkloadError(f"alpha must be > 0, got {alpha}")
        if lower <= 0:
            raise WorkloadError(f"lower must be > 0, got {lower}")
        if upper <= lower:
            raise WorkloadError(
                f"upper must exceed lower, got [{lower}, {upper}]"
            )
        self.alpha = float(alpha)
        self.lower = float(lower)
        self.upper = float(upper)
        # Precompute the CDF normaliser for the truncated support.
        self._l_a = lower**alpha
        self._ratio = (lower / upper) ** alpha

    def sample(self, rng: random.Random) -> float:
        """Draw one value in ``[lower, upper]``."""
        u = rng.random()
        denom = 1.0 - u * (1.0 - self._ratio)
        return (self._l_a / denom) ** (1.0 / self.alpha)


class EmpiricalSampler:
    """Resamples (with interpolation) from an observed sample.

    Stands in for "drawn randomly from this measured sample" (how the
    paper uses the [18] lifetime trace).  Sampling picks a uniform point
    on the empirical CDF and linearly interpolates between order
    statistics, which smooths small samples without changing their shape.

    Args:
        observations: the measured values (at least one, all finite).
    """

    def __init__(self, observations: Sequence[float]) -> None:
        if not observations:
            raise WorkloadError("EmpiricalSampler needs at least one observation")
        values = sorted(float(v) for v in observations)
        if not all(math.isfinite(v) for v in values):
            raise WorkloadError("observations must be finite")
        self._values = values

    def sample(self, rng: random.Random) -> float:
        """Draw one value by interpolated inverse-CDF resampling."""
        values = self._values
        if len(values) == 1:
            return values[0]
        position = rng.random() * (len(values) - 1)
        index = int(position)
        frac = position - index
        if index + 1 >= len(values):
            return values[-1]
        return values[index] * (1.0 - frac) + values[index + 1] * frac

    def __len__(self) -> int:
        return len(self._values)
