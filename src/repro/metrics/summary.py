"""Small statistics helpers.

Dependency-free (the library itself avoids numpy so it can run anywhere);
the experiment layer may still use numpy for heavier analysis.
"""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence.

    Empty-input tolerance is deliberate: experiment code averages metric
    streams that can legitimately be empty (e.g. zero refused probes).
    """
    if not values:
        return 0.0
    return math.fsum(values) / len(values)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1].

    Raises:
        ValueError: on an empty sequence or q outside [0, 1].
    """
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    index = int(position)
    frac = position - index
    if index + 1 >= len(ordered):
        return ordered[-1]
    return ordered[index] * (1.0 - frac) + ordered[index + 1] * frac


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with a 0.0 guard for a zero denominator."""
    if denominator == 0:
        return 0.0
    return numerator / denominator
