"""Tests for ranked load distributions."""

from __future__ import annotations

import pytest

from repro.metrics.load import LoadDistribution, merge_loads


class TestLoadDistribution:
    def test_ranked_descending(self):
        dist = LoadDistribution({1: 5, 2: 50, 3: 10})
        assert [dist.load_at_rank(r) for r in (1, 2, 3)] == [50, 10, 5]

    def test_total(self):
        assert LoadDistribution({1: 5, 2: 10}).total == 15

    def test_load_at_rank(self):
        dist = LoadDistribution({1: 5, 2: 50, 3: 10})
        assert dist.load_at_rank(1) == 50
        assert dist.load_at_rank(3) == 5

    def test_load_at_rank_bounds(self):
        dist = LoadDistribution({1: 5})
        with pytest.raises(IndexError):
            dist.load_at_rank(0)
        with pytest.raises(IndexError):
            dist.load_at_rank(2)

    def test_top_share_hotspot(self):
        loads = {i: 1 for i in range(100)}
        loads[0] = 901  # one peer takes 90%+
        dist = LoadDistribution(loads)
        assert dist.top_share(0.01) == pytest.approx(0.901)

    def test_top_share_uniform(self):
        dist = LoadDistribution({i: 10 for i in range(100)})
        assert dist.top_share(0.10) == pytest.approx(0.10)

    def test_top_share_validation(self):
        dist = LoadDistribution({1: 1})
        with pytest.raises(ValueError):
            dist.top_share(0.0)
        with pytest.raises(ValueError):
            dist.top_share(1.5)

    def test_gini_uniform_is_zero(self):
        dist = LoadDistribution({i: 10 for i in range(50)})
        assert dist.gini() == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated_near_one(self):
        loads = {i: 0 for i in range(1, 100)}
        loads[0] = 1000
        assert LoadDistribution(loads).gini() > 0.95

    def test_gini_degenerate(self):
        assert LoadDistribution({}).gini() == 0.0
        assert LoadDistribution({1: 0}).gini() == 0.0

    def test_series_full(self):
        dist = LoadDistribution({1: 3, 2: 2, 3: 1})
        assert dist.series() == [(1, 3), (2, 2), (3, 1)]

    def test_series_thinned_monotone_ranks(self):
        dist = LoadDistribution({i: 1000 - i for i in range(1000)})
        series = dist.series(max_points=20)
        ranks = [rank for rank, _ in series]
        assert ranks == sorted(ranks)
        assert ranks[0] == 1
        assert ranks[-1] == 1000
        assert len(series) <= 21

    def test_series_empty(self):
        assert LoadDistribution({}).series() == []


class TestMergeLoads:
    def test_merge_sums_overlaps(self):
        merged = merge_loads([{1: 5, 2: 3}, {2: 4, 3: 1}])
        assert merged == {1: 5, 2: 7, 3: 1}

    def test_merge_empty(self):
        assert merge_loads([]) == {}
