"""Tests for named RNG streams."""

from __future__ import annotations

import random

import pytest

from repro.sim.rng import RngRegistry, derive_seed, randbelow
from tests.integration.test_degenerate_configs import TIMEOUT_SECONDS, alarm


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_varies_with_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_varies_with_master(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_adjacent_masters_not_adjacent_seeds(self):
        # The hash construction should decorrelate neighbouring seeds.
        assert abs(derive_seed(1, "a") - derive_seed(2, "a")) > 1000

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(2**62, "x" * 100) < 2**64


class TestRngRegistry:
    def test_same_stream_same_sequence(self):
        a = RngRegistry(7).stream("lifetimes")
        b = RngRegistry(7).stream("lifetimes")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_differ(self):
        reg = RngRegistry(7)
        a = [reg.stream("a").random() for _ in range(5)]
        b = [reg.stream("b").random() for _ in range(5)]
        assert a != b

    def test_stream_instance_cached(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")

    def test_stream_isolation_from_creation_order(self):
        # Drawing from stream "a" must not perturb stream "b".
        reg1 = RngRegistry(7)
        reg1.stream("a").random()
        b1 = reg1.stream("b").random()

        reg2 = RngRegistry(7)
        b2 = reg2.stream("b").random()
        assert b1 == b2


class TestRandbelow:
    # Draw for draw ``randrange``: tests/property/test_random_draws.py.
    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_range_raises_instead_of_hanging(self, n):
        # getrandbits(0) is 0 and 0 >= 0, so the bare loop spins forever.
        rng = random.Random(7)
        state = rng.getstate()
        with alarm(TIMEOUT_SECONDS), pytest.raises(ValueError):
            randbelow(rng, n)
        with pytest.raises(ValueError):
            rng.randrange(n)
        assert rng.getstate() == state
