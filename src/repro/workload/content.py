"""Content catalog, ownership, and query matching.

The paper determines "whether a peer returns a result for a query" with
the query model of Yang & Garcia-Molina [21], in which the probability of
answering rises with the peer's library size.  That model is parameterised
by proprietary OpenNap traces, so we build the equivalent *explicit*
content model (DESIGN.md §2):

* a catalog of ``catalog_size`` distinct files, ranked by popularity;
* each peer's library is a set of file ranks drawn from a Zipf
  distribution over the catalog (popular files are widely replicated),
  with the library *size* supplied by the caller (the
  :class:`~repro.workload.files.FileCountModel` draw that also populates
  the ``NumFiles`` cache field);
* query targets are drawn from a Zipf distribution over the same ranks,
  plus a ``nonexistent_p`` chance of asking for something nobody has —
  the paper states that ≈6% of queries at NetworkSize 1000 are
  unsatisfiable even if every peer is probed (Section 6.2), and this knob
  (plus the natural rare-file tail) reproduces that floor.

A probe matches iff the queried rank is in the probed peer's library, so
the [21] property "peers with more files answer more queries" emerges
directly.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import Collection, Iterable, Iterator

from repro.errors import WorkloadError
from repro.workload.distributions import ZipfSampler

#: Sentinel rank for queries targeting content that no peer owns.
NONEXISTENT_FILE = -1

#: Catalog size giving a realistic rare-item tail at NetworkSize ~1000.
DEFAULT_CATALOG_SIZE = 20_000

#: Replication skew: how strongly popular files dominate libraries.
DEFAULT_OWNERSHIP_EXPONENT = 0.8

#: Query skew: how strongly queries concentrate on popular files.
DEFAULT_QUERY_EXPONENT = 0.8

#: Probability a query asks for a nonexistent item (calibrates the ~6%
#: unsatisfiable floor together with the natural rare-file tail).
DEFAULT_NONEXISTENT_P = 0.05


class Library:
    """One peer's owned file ranks: a sorted, de-duplicated ``array("i")``.

    A library is only ever asked ``in``, ``len`` and (ascending)
    iteration, so it is not a set: a ``frozenset`` of 310 ranks sits in
    a 2048-slot, 32 KiB hash table beside 28 bytes per boxed int, while
    the same ranks as C ints cost 4 bytes each and give the garbage
    collector nothing to trace (DESIGN.md §2).
    """

    __slots__ = ("_ranks",)

    def __init__(self, ranks: Iterable[int] = ()) -> None:
        self._ranks = array("i", sorted(set(ranks)))

    def __contains__(self, rank: object) -> bool:
        ranks = self._ranks
        index = bisect_left(ranks, rank)
        return index < len(ranks) and ranks[index] == rank

    def __len__(self) -> int:
        return len(self._ranks)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ranks)


#: The one library of every peer that shares nothing (free riders,
#: cache-poisoning attackers).
EMPTY_LIBRARY = Library()

#: One sampler per ``(catalog_size, exponent)`` per process, built on first use.
_zipf = lru_cache(maxsize=None, typed=True)(ZipfSampler)


class ContentModel:
    """Assigns libraries to peers and draws query targets.

    Args:
        catalog_size: number of distinct files in the universe.
        ownership_exponent: Zipf skew of replication.
        query_exponent: Zipf skew of query popularity.
        nonexistent_p: probability a query targets no existing file.

    The model is stateless across peers: libraries are immutable value
    objects (:class:`Library`) owned by the peers themselves, so peer
    death needs no bookkeeping here.
    """

    def __init__(
        self,
        catalog_size: int = DEFAULT_CATALOG_SIZE,
        ownership_exponent: float = DEFAULT_OWNERSHIP_EXPONENT,
        query_exponent: float = DEFAULT_QUERY_EXPONENT,
        nonexistent_p: float = DEFAULT_NONEXISTENT_P,
    ) -> None:
        if catalog_size < 1:
            raise WorkloadError(
                f"catalog_size must be >= 1, got {catalog_size}"
            )
        if not 0.0 <= nonexistent_p < 1.0:
            raise WorkloadError(
                f"nonexistent_p must be in [0, 1), got {nonexistent_p}"
            )
        self.catalog_size = int(catalog_size)
        self.nonexistent_p = float(nonexistent_p)
        self._ownership = _zipf(catalog_size, ownership_exponent)
        self._queries = _zipf(catalog_size, query_exponent)

    # ------------------------------------------------------------------
    # Libraries
    # ------------------------------------------------------------------

    def build_library(self, rng: random.Random, num_files: int) -> Library:
        """Sample the library (owned file ranks) for a peer.

        Args:
            rng: stream to draw from.
            num_files: the peer's shared-file count.  Exactly
                ``min(num_files, 4 * catalog_size)`` draws are made, with
                replacement, so the library may be slightly smaller than
                ``num_files`` (duplicates collapse) — harmless, since
                ``NumFiles`` advertises the nominal count, exactly like a
                real client advertising its configured share.

        Returns:
            The owned ranks; :data:`EMPTY_LIBRARY` for free riders.
        """
        if num_files < 0:
            raise WorkloadError(f"num_files must be >= 0, got {num_files}")
        if num_files == 0:
            return EMPTY_LIBRARY
        draws = min(num_files, self.catalog_size * 4)
        return Library(self._ownership.sample_many(rng, draws))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def draw_query_target(self, rng: random.Random) -> int:
        """Draw the file rank a query asks for.

        Returns:
            A rank in ``[1, catalog_size]``, or :data:`NONEXISTENT_FILE`
            with probability ``nonexistent_p``.
        """
        if self.nonexistent_p and rng.random() < self.nonexistent_p:
            return NONEXISTENT_FILE
        return self._queries.sample(rng)

    @staticmethod
    def matches(library: Collection[int], target: int) -> bool:
        """Whether a peer owning ``library`` can answer a query for ``target``."""
        if target == NONEXISTENT_FILE:
            return False
        return target in library
