"""Reusable random samplers for workload modelling.

All samplers draw from a caller-supplied :class:`random.Random` stream so
that every consumer participates in the named-stream determinism scheme
(:mod:`repro.sim.rng`).  Samplers precompute whatever they can (the Zipf
CDF and its guide table) so a draw is one ``random()`` call and a table
lookup, a short binary search or a couple of arithmetic operations.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate
from typing import List, Sequence

from repro.errors import WorkloadError


class ZipfSampler:
    """Samples ranks 1..n with probability proportional to ``1 / rank**s``.

    Zipf-distributed popularity is the standard model for both file
    replication and query frequency in P2P measurement studies.  A draw
    inverts the CDF at one ``u = rng.random()`` through an exact guide
    table (DESIGN.md §2): the rank is ``bisect_left(cdf, u) + 1``.

    Args:
        n: number of ranks (>= 1).
        exponent: the Zipf skew parameter ``s`` (finite, >= 0; 0 is uniform).
    """

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n < 1:
            raise WorkloadError(f"Zipf n must be >= 1, got {n}")
        if not (exponent >= 0 and math.isfinite(exponent)):
            raise WorkloadError(f"Zipf exponent must be finite, >= 0: {exponent}")
        try:
            weights = [1.0 / (rank ** exponent) for rank in range(1, n + 1)]
        except OverflowError:
            raise WorkloadError(f"Zipf weight overflows: {n}**{exponent}") from None
        total = math.fsum(weights)
        # Led by a sentinel below every draw, so an index is the rank itself.
        cdf = [-1.0, *accumulate(w / total for w in weights)]
        cdf[-1] = 1.0  # guard against float round-off
        # lo[b]: the first index whose floor(cdf * m) >= b, so floor(u * m) == b
        # puts u's index in lo[b]..lo[b + 1] (DESIGN.md §2); fixed[b]: the only one.
        m = 1 << (n.bit_length() - 1)
        lo: List[int] = []
        for j, c in enumerate(cdf):
            lo += [j] * (math.floor(c * m) + 1 - len(lo))
        self._cdf, self._m, self._lo = cdf, m, lo
        self._fixed = [a if a == b else 0 for a, b in zip(lo, lo[1:])]

    def sample(self, rng: random.Random) -> int:
        """Draw a rank in ``[1, n]``."""
        return self.sample_many(rng, 1)[0]

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``count`` i.i.d. ranks, one ``rng.random()`` call each."""
        cdf, m, lo, fixed = self._cdf, self._m, self._lo, self._fixed
        rand = rng.random
        floor = math.floor  # a float's floor() is twice int()'s speed
        return [
            fixed[b] or bisect_left(cdf, u, lo[b], lo[b + 1])
            for _ in range(count)
            for u in [rand()]
            for b in [floor(u * m)]
        ]


class LogNormalSampler:
    """Log-normal sampler parameterised by *median* and shape ``sigma``.

    Medians are how measurement papers usually report session times and
    library sizes, so the constructor takes the median directly
    (``mu = ln(median)``).

    Args:
        median: median of the distribution (finite, > 0).
        sigma: shape parameter (finite, > 0); larger values mean a heavier tail.
    """

    def __init__(self, median: float, sigma: float) -> None:
        if not (median > 0 and math.isfinite(median)):
            raise WorkloadError(f"median must be finite and > 0, got {median}")
        if not (sigma > 0 and math.isfinite(sigma)):
            raise WorkloadError(f"sigma must be finite and > 0, got {sigma}")
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
        alpha: tail index (finite, > 0); smaller is heavier.
        lower: inclusive lower bound (> 0).
        upper: inclusive upper bound (finite, > lower).
    """

    def __init__(self, alpha: float, lower: float, upper: float) -> None:
        if not (alpha > 0 and math.isfinite(alpha)):
            raise WorkloadError(f"alpha must be finite and > 0, got {alpha}")
        if not lower > 0:
            raise WorkloadError(f"lower must be > 0, got {lower}")
        if not (upper > lower and math.isfinite(upper)):
            raise WorkloadError(
                f"upper must be finite and exceed lower, got [{lower}, {upper}]"
            )
        self.alpha = float(alpha)
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
        values = tuple(sorted(float(v) for v in observations))
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
