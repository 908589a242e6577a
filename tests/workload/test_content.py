"""Tests for the content/query model."""

from __future__ import annotations

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.content import (
    EMPTY_LIBRARY,
    NONEXISTENT_FILE,
    ContentModel,
    Library,
)


@pytest.fixture
def rng():
    return random.Random(5)


@pytest.fixture
def model():
    return ContentModel(catalog_size=1000)


class TestLibraries:
    def test_empty_for_free_riders(self, model, rng):
        assert model.build_library(rng, 0) is EMPTY_LIBRARY
        assert len(EMPTY_LIBRARY) == 0 and list(EMPTY_LIBRARY) == []

    def test_library_size_close_to_requested(self, model, rng):
        library = model.build_library(rng, 50)
        assert 1 <= len(library) <= 50

    def test_ranks_in_catalog(self, model, rng):
        library = model.build_library(rng, 100)
        assert all(1 <= rank <= 1000 for rank in library)

    def test_popular_files_more_replicated(self, rng):
        model = ContentModel(catalog_size=500, ownership_exponent=1.0)
        owners_of_rank1 = 0
        owners_of_rank400 = 0
        for _ in range(300):
            library = model.build_library(rng, 30)
            owners_of_rank1 += 1 in library
            owners_of_rank400 += 400 in library
        assert owners_of_rank1 > owners_of_rank400

    def test_negative_num_files_rejected(self, model, rng):
        with pytest.raises(WorkloadError):
            model.build_library(rng, -1)

    def test_library_is_sorted_rank_array(self, model, rng):
        library = model.build_library(rng, 400)
        assert isinstance(library, Library)
        ranks = list(library)
        assert ranks == sorted(set(ranks)) and len(ranks) == len(library)

    @pytest.mark.parametrize(
        "num_files, draws",
        [(0, 0), (1, 1), (325, 325), (4000, 4000), (9999, 4000)],
    )
    def test_build_library_leaves_the_stream_after_k_draws(
        self, model, num_files, draws
    ):
        """"Same draws" as the frozenset spelling: one per file up to the
        ``catalog_size * 4`` cap, duplicates included, so de-duplicating
        *before* drawing (or redrawing a duplicate) fails here."""
        built, plain = random.Random(11), random.Random(11)
        model.build_library(built, num_files)
        for _ in range(draws):
            plain.random()
        assert built.random() == plain.random()


class TestQueries:
    def test_targets_in_catalog_or_nonexistent(self, model, rng):
        for _ in range(500):
            target = model.draw_query_target(rng)
            assert target == NONEXISTENT_FILE or 1 <= target <= 1000

    def test_nonexistent_rate(self, rng):
        model = ContentModel(catalog_size=100, nonexistent_p=0.2)
        draws = [model.draw_query_target(rng) for _ in range(5000)]
        rate = draws.count(NONEXISTENT_FILE) / len(draws)
        assert rate == pytest.approx(0.2, abs=0.03)

    def test_nonexistent_disabled(self, rng):
        model = ContentModel(catalog_size=100, nonexistent_p=0.0)
        assert all(
            model.draw_query_target(rng) != NONEXISTENT_FILE
            for _ in range(500)
        )

    def test_matches(self):
        library = frozenset({3, 5})
        assert ContentModel.matches(library, 3)
        assert not ContentModel.matches(library, 4)
        assert not ContentModel.matches(library, NONEXISTENT_FILE)

    def test_nonexistent_never_matches_even_large_library(self, model, rng):
        library = model.build_library(rng, 500)
        assert not ContentModel.matches(library, NONEXISTENT_FILE)


class TestCalibration:
    def test_unsatisfiable_floor_near_paper_value(self, rng):
        """~6% of queries should have no owner among ~1000 peers (§6.2)."""
        model = ContentModel()
        libraries = [
            model.build_library(rng, random.Random(i).randint(0, 300))
            for i in range(1000)
        ]
        owned = frozenset().union(*libraries)
        unsatisfiable = 0
        queries = 2000
        for _ in range(queries):
            target = model.draw_query_target(rng)
            if target == NONEXISTENT_FILE or target not in owned:
                unsatisfiable += 1
        assert 0.02 <= unsatisfiable / queries <= 0.14

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            ContentModel(catalog_size=0)
        with pytest.raises(WorkloadError):
            ContentModel(nonexistent_p=1.0)
