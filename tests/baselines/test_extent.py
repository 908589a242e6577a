"""Tests for the shared population view."""

from __future__ import annotations

import random

import pytest

from repro.baselines.extent import PopulationView
from repro.errors import WorkloadError
from repro.workload.content import ContentModel


@pytest.fixture
def rng():
    return random.Random(8)


def fixed_view(libraries):
    return PopulationView(
        libraries=tuple(frozenset(lib) for lib in libraries),
        content=ContentModel(catalog_size=100),
    )


class TestConstruction:
    def test_synthesize_size(self, rng):
        view = PopulationView.synthesize(50, rng)
        assert view.size == 50

    def test_synthesize_invalid_size(self, rng):
        with pytest.raises(WorkloadError):
            PopulationView.synthesize(0, rng)


class TestOwners:
    def test_owners_of(self):
        view = fixed_view([{1, 2}, {2}, {3}])
        assert view.owners_of(2) == 2
        assert view.owners_of(3) == 1
        assert view.owners_of(9) == 0

    def test_draw_query_targets(self, rng):
        view = fixed_view([{1}])
        targets = view.draw_query_targets(rng, 10)
        assert len(targets) == 10


class TestUnsatCurve:
    def test_no_owners_always_unsat(self):
        view = fixed_view([{1}] * 10)
        curve = view.unsat_probability_curve(0, 10)
        assert curve == [1.0] * 10

    def test_all_owners_first_draw_hits(self):
        view = fixed_view([{1}] * 10)
        curve = view.unsat_probability_curve(10, 10)
        assert curve[0] == pytest.approx(0.0)

    def test_exact_hypergeometric_values(self):
        # 4 peers, 1 owner: P(miss after E draws) = (4-E)/4.
        view = fixed_view([{1}, {}, {}, {}])
        curve = view.unsat_probability_curve(1, 4)
        assert curve == pytest.approx([0.75, 0.5, 0.25, 0.0])

    def test_monotone_nonincreasing(self):
        view = fixed_view([{1}] * 100)
        curve = view.unsat_probability_curve(7, 100)
        assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_bounds_validated(self):
        view = fixed_view([{1}] * 5)
        with pytest.raises(WorkloadError):
            view.unsat_probability_curve(6, 5)
        with pytest.raises(WorkloadError):
            view.unsat_probability_curve(1, 6)
        with pytest.raises(WorkloadError):
            view.unsat_probability_curve(-1, 5)


class TestFirstOwnerPosition:
    def test_none_without_owners(self, rng):
        view = fixed_view([{}] * 5)
        assert view.sample_first_owner_position(0, rng) is None

    def test_position_in_range(self, rng):
        view = fixed_view([{1}] * 20)
        for _ in range(100):
            position = view.sample_first_owner_position(3, rng)
            assert 1 <= position <= 20

    def test_all_owners_position_one(self, rng):
        view = fixed_view([{1}] * 5)
        assert view.sample_first_owner_position(5, rng) == 1

    def test_expected_position_statistics(self, rng):
        # With m owners among n peers, E[first position] = (n+1)/(m+1).
        view = fixed_view([{1}] * 30)
        positions = [
            view.sample_first_owner_position(2, rng) for _ in range(4000)
        ]
        expected = (30 + 1) / (2 + 1)
        assert sum(positions) / len(positions) == pytest.approx(expected, rel=0.1)
