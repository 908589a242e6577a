"""Named, seeded random-number streams.

Every source of randomness in a simulation run draws from a *named stream*
(``"lifetimes"``, ``"queries"``, ``"policies"``, ...).  Streams are derived
deterministically from a single master seed, so

* the same ``(master_seed, stream_name)`` pair always produces the same
  sequence, independent of the order in which other streams are used, and
* adding a new consumer of randomness to the simulator does not perturb the
  draws seen by existing consumers (a classic simulation-reproducibility
  pitfall).

Streams are plain :class:`random.Random` instances: the simulator makes
millions of scalar draws, where the stdlib beats numpy for single values;
an index draw is :func:`randbelow`, ``randrange``'s rule in one frame.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, stream_name: str) -> int:
    """Derive a 64-bit child seed from a master seed and a stream name.

    Uses BLAKE2b over the ``(master_seed, stream_name)`` pair, which keeps
    sibling streams statistically independent even for adjacent master
    seeds (unlike e.g. ``master_seed + hash(name)``).
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{stream_name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` in one frame, not two: same value, same state after.
    ``n < 1`` raises ``ValueError`` (``getrandbits(0)`` is 0: no end)."""
    if n < 1:
        raise ValueError(f"empty range for randbelow({n})")
    bits = n.bit_length()
    j = rng.getrandbits(bits)
    while j >= n:
        j = rng.getrandbits(bits)
    return j


class RngRegistry:
    """A lazily populated registry of named random streams.

    Args:
        master_seed: seed from which all streams are derived.

    Example::

        rng = RngRegistry(42)
        lifetime = rng.stream("lifetimes").random()
    """

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self._master_seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RngRegistry(master_seed={self._master_seed}, "
            f"streams={sorted(self._streams)})"
        )
