"""Tests for the address allocator."""

from __future__ import annotations

import pytest

from repro.network.address import AddressAllocator


class TestAddressAllocator:
    def test_sequential_allocation(self):
        alloc = AddressAllocator()
        assert [alloc.allocate() for _ in range(3)] == [0, 1, 2]

    def test_no_reuse(self):
        alloc = AddressAllocator()
        seen = {alloc.allocate() for _ in range(1000)}
        assert len(seen) == 1000

    def test_allocate_many(self):
        alloc = AddressAllocator()
        alloc.allocate()
        block = alloc.allocate_many(4)
        assert block == [1, 2, 3, 4]
        assert alloc.allocate() == 5

    def test_allocate_many_zero(self):
        alloc = AddressAllocator()
        assert alloc.allocate_many(0) == []

    def test_allocate_many_negative_rejected(self):
        with pytest.raises(ValueError):
            AddressAllocator().allocate_many(-1)

    def test_custom_start(self):
        alloc = AddressAllocator(start=100)
        assert alloc.allocate() == 100

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            AddressAllocator(start=-5)

    def test_contains(self):
        alloc = AddressAllocator()
        alloc.allocate_many(3)
        assert 2 in alloc
        assert 3 not in alloc

    def test_allocated_count(self):
        alloc = AddressAllocator()
        alloc.allocate_many(7)
        assert 6 in alloc and 7 not in alloc
        assert alloc.allocate() == 7
