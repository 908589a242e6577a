"""Tests for the iterative-deepening baseline."""

from __future__ import annotations

import random

import pytest

from repro.baselines.extent import PopulationView
from repro.baselines.iterative_deepening import IterativeDeepeningSearch
from repro.errors import WorkloadError
from repro.workload.content import ContentModel


@pytest.fixture
def rng():
    return random.Random(66)


def fixed_view(libraries):
    return PopulationView(
        libraries=tuple(frozenset(lib) for lib in libraries),
        content=ContentModel(catalog_size=100),
    )


class TestSchedule:
    def test_validation(self):
        view = fixed_view([{1}] * 10)
        with pytest.raises(WorkloadError):
            IterativeDeepeningSearch(view, schedule=())
        with pytest.raises(WorkloadError):
            IterativeDeepeningSearch(view, schedule=(10, 5))
        with pytest.raises(WorkloadError):
            IterativeDeepeningSearch(view, schedule=(5, 5))
        with pytest.raises(WorkloadError):
            IterativeDeepeningSearch(view, schedule=(0, 5))

    def test_clamped_to_population(self, rng):
        view = fixed_view([{}] * 10)  # nobody owns anything
        search = IterativeDeepeningSearch(view, schedule=(5, 100, 200))
        cost, satisfied = search.run(1, rng)
        assert not satisfied
        assert cost == 5 + 10  # 100 and 200 both clamp to 10, deduped


class TestRun:
    def test_popular_item_cheap(self, rng):
        view = fixed_view([{42}] * 100)
        search = IterativeDeepeningSearch(view, schedule=(10, 50, 100))
        cost, satisfied = search.run(42, rng)
        assert satisfied
        assert cost == 10  # first round always covers it

    def test_missing_item_pays_whole_schedule(self, rng):
        view = fixed_view([{1}] * 100)
        search = IterativeDeepeningSearch(view, schedule=(10, 50, 100))
        cost, satisfied = search.run(99, rng)
        assert not satisfied
        assert cost == 160

    def test_reflooding_accumulates_cost(self, rng):
        # A rare item found in round 2 costs round1 + round2.
        view = fixed_view([{42}] + [{}] * 99)
        search = IterativeDeepeningSearch(view, schedule=(10, 100))
        costs = {search.run(42, rng)[0] for _ in range(300)}
        assert costs <= {10, 110}
        assert 110 in costs  # the rare item regularly escapes round 1


class TestEvaluate:
    def test_matches_run_statistics(self, rng):
        view = PopulationView.synthesize(200, rng)
        targets = view.draw_query_targets(rng, 300)
        search = IterativeDeepeningSearch(view, schedule=(20, 100, 200))
        cost, unsat = search.evaluate(targets, rng)
        assert cost >= 20
        assert 0.0 <= unsat <= 1.0

    def test_empty_targets_rejected(self, rng):
        view = fixed_view([{1}] * 10)
        with pytest.raises(WorkloadError):
            IterativeDeepeningSearch(view, schedule=(5,)).evaluate([], rng)
