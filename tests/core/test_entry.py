"""Tests for cache entries."""

from __future__ import annotations

import pytest

from repro.core.entry import CacheEntry
from tests.conftest import cache_of


class TestCopy:
    def test_copy_is_independent(self):
        original = CacheEntry(address=1, ts=5.0, num_files=10, num_res=2)
        duplicate = original.copy()
        duplicate.ts = 99.0
        duplicate.num_res = 7
        assert original.ts == 5.0
        assert original.num_res == 2

    def test_copy_preserves_fields(self):
        entry = CacheEntry(address=3, ts=1.5, num_files=42, num_res=6)
        copy = entry.copy()
        assert (copy.address, copy.ts, copy.num_files, copy.num_res) == (
            3, 1.5, 42, 6,
        )

    def test_import_copy_resets_num_res(self):
        entry = CacheEntry(address=1, ts=2.0, num_files=5, num_res=9)
        imported = entry.copy(4.0, reset_num_results=True)
        assert imported.num_res == 0
        assert imported.num_files == 5  # only NumRes is distrusted
        assert (imported.ts, imported.born) == (2.0, 4.0)
        assert entry.num_res == 9

    def test_import_copy_without_reset(self):
        entry = CacheEntry(address=1, num_res=9, born=1.0)
        imported = entry.copy(4.0)
        assert (imported.num_res, imported.born) == (9, 4.0)
        # No import time: a snapshot keeps the original's acquisition time.
        assert entry.copy().born == 1.0


class TestTouch:
    def test_touch_advances_ts(self):
        entry = CacheEntry(address=1, ts=1.0)
        entry.touch(5.0)
        assert entry.ts == 5.0

    def test_touch_is_monotone(self):
        # Virtual probe timestamps can arrive out of order; TS must not
        # roll back.
        entry = CacheEntry(address=1, ts=10.0)
        entry.touch(4.0)
        assert entry.ts == 10.0


class TestRecordResults:
    # The NumRes/TS reset of a query reply (Section 2.1) is written where
    # an entry is kept: ``LinkCache.record_results`` for a resident.
    def test_sets_num_res_and_ts(self):
        entry = CacheEntry(address=1, ts=0.0, num_res=5)
        assert cache_of([entry]).record_results(1, 2, now=3.0)
        assert entry.num_res == 2
        assert entry.ts == 3.0

    def test_zero_results_resets(self):
        entry = CacheEntry(address=1, num_res=5)
        cache_of([entry]).record_results(1, 0, now=1.0)
        assert entry.num_res == 0

    def test_negative_results_rejected(self):
        with pytest.raises(ValueError):
            cache_of([CacheEntry(address=1)]).record_results(1, -1, now=1.0)
