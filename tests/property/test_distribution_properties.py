"""Property-based tests for the workload samplers and structures."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.unionfind import UnionFind
from repro.workload.content import Library
from repro.workload.distributions import (
    BoundedParetoSampler,
    EmpiricalSampler,
    ZipfSampler,
)

seeds = st.integers(min_value=0, max_value=2**32)


@given(st.lists(st.integers(min_value=0, max_value=300)))
@settings(max_examples=200)
def test_library_answers_like_a_frozenset(ranks):
    """The whole library contract: ``in``, ``len``, ascending iteration."""
    library, reference = Library(ranks), frozenset(ranks)
    assert len(library) == len(reference)
    assert list(library) == sorted(reference)
    for rank in range(-1, max(ranks, default=0) + 2):
        assert (rank in library) == (rank in reference)


@given(
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    seeds,
)
@settings(max_examples=80)
def test_zipf_range_and_normalisation(n, exponent, seed):
    sampler = ZipfSampler(n, exponent)
    rng = random.Random(seed)
    for _ in range(20):
        assert 1 <= sampler.sample(rng) <= n
    cdf = sampler._cdf[1:]  # past the sentinel
    assert len(cdf) == n and cdf[-1] == 1.0
    assert all(a <= b for a, b in zip(cdf, cdf[1:]))


class Replay:
    """An rng whose ``random()`` returns ``values`` in turn."""

    def __init__(self, values):
        self.random = iter(values).__next__


def boundary_draws(cdf, buckets):
    """0.0, the largest float below 1, and each CDF point and guide-table
    bucket edge with its two float neighbours: every ``u`` where a search
    confined to one bucket could part from the full search."""
    points = [0.0, math.nextafter(1.0, 0.0)]
    for x in [*cdf, *(b / buckets for b in range(buckets + 1))]:
        points += [math.nextafter(x, -1.0), x, math.nextafter(x, 2.0)]
    return [u for u in points if 0.0 <= u < 1.0]


@given(
    st.integers(min_value=1, max_value=3000),
    st.one_of(
        st.sampled_from([0.0, 0.8, 1.0]),
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    ),
)
@example(1, 0.0)
@example(2, 0.0)
@example(1024, 0.0)  # every CDF point lands exactly on a bucket edge
@example(20_000, 0.8)  # the default catalog
@settings(max_examples=60, deadline=None)
def test_zipf_guide_table_equals_the_full_search(n, exponent):
    sampler = ZipfSampler(n, exponent)
    cdf = sampler._cdf[1:]  # past the sentinel
    draws = boundary_draws(cdf, sampler._m)
    oracle = [bisect_left(cdf, u) + 1 for u in draws]
    assert sampler.sample_many(Replay(draws), len(draws)) == oracle
    assert [sampler.sample(Replay([u])) for u in draws] == oracle


@given(
    st.integers(min_value=1, max_value=3000),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    seeds,
    st.integers(min_value=0, max_value=400),
)
@settings(max_examples=60, deadline=None)
def test_zipf_draws_one_random_per_rank(n, exponent, seed, k):
    drawn, reference = random.Random(seed), random.Random(seed)
    ZipfSampler(n, exponent).sample_many(drawn, k)
    for _ in range(k):
        reference.random()
    assert drawn.getstate() == reference.getstate()


@given(
    st.integers(min_value=2, max_value=300),
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
)
@settings(max_examples=80)
def test_zipf_monotone_probabilities(n, exponent):
    sampler = ZipfSampler(n, exponent)
    cdf = sampler._cdf[1:]  # past the sentinel
    probs = [b - a for a, b in zip([0.0, *cdf], cdf)]
    assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))


@given(
    st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    st.floats(min_value=1.01, max_value=100.0, allow_nan=False),
    seeds,
)
@settings(max_examples=80)
def test_bounded_pareto_stays_in_bounds(alpha, lower, ratio, seed):
    upper = lower * ratio
    sampler = BoundedParetoSampler(alpha=alpha, lower=lower, upper=upper)
    rng = random.Random(seed)
    for _ in range(30):
        value = sampler.sample(rng)
        assert lower - 1e-9 <= value <= upper + 1e-9


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
    seeds,
)
@settings(max_examples=80)
def test_empirical_sampler_stays_in_hull(observations, seed):
    sampler = EmpiricalSampler(observations)
    rng = random.Random(seed)
    lo, hi = min(observations), max(observations)
    for _ in range(20):
        assert lo - 1e-9 <= sampler.sample(rng) <= hi + 1e-9


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
        ),
        max_size=60,
    )
)
@settings(max_examples=80)
def test_unionfind_component_sizes_partition(unions):
    uf = UnionFind(range(31))
    for a, b in unions:
        uf.union(a, b)
    sizes = Counter(uf.find(i) for i in range(31)).values()
    assert sum(sizes) == 31
    assert uf.largest_component_size() == max(sizes)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
        ),
        max_size=60,
    )
)
@settings(max_examples=80)
def test_unionfind_matches_naive_reachability(unions):
    uf = UnionFind(range(31))
    adjacency = {i: {i} for i in range(31)}
    for a, b in unions:
        uf.union(a, b)
        merged = adjacency[a] | adjacency[b]
        for node in merged:
            adjacency[node] = merged
    sizes = Counter(uf.find(i) for i in range(31))
    for i in range(31):
        assert sizes[uf.find(i)] == len(adjacency[i])
