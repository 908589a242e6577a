"""Tests for SystemParams / ProtocolParams — asserts the paper's Tables 1-2."""

from __future__ import annotations

import pytest

from repro.core.params import (
    BadPongBehavior,
    ProtocolParams,
    SystemParams,
    default_cache_seed_size,
)
from repro.errors import ConfigError


class TestTable1Defaults:
    """The defaults must match paper Table 1 exactly."""

    def test_defaults(self):
        params = SystemParams()
        assert params.network_size == 1000
        assert params.num_desired_results == 1
        assert params.lifespan_multiplier == 1.0
        assert params.query_rate == pytest.approx(9.26e-3)
        assert params.max_probes_per_second == 100
        assert params.percent_bad_peers == 0.0
        assert params.bad_pong_behavior is BadPongBehavior.DEAD


class TestTable2Defaults:
    """The defaults must match paper Table 2 exactly."""

    def test_defaults(self):
        params = ProtocolParams()
        assert params.query_probe == "Random"
        assert params.query_pong == "Random"
        assert params.ping_probe == "Random"
        assert params.ping_pong == "Random"
        assert params.cache_replacement == "Random"
        assert params.ping_interval == 30.0
        assert params.cache_size == 100
        assert params.reset_num_results is False
        assert params.do_backoff is False
        assert params.pong_size == 5
        assert params.intro_prob == pytest.approx(0.1)


class TestSystemValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"network_size": 1},
            {"num_desired_results": 0},
            {"lifespan_multiplier": 0.0},
            {"query_rate": -1.0},
            {"max_probes_per_second": 0},
            {"percent_bad_peers": -1.0},
            {"percent_bad_peers": 101.0},
            {"bad_pong_behavior": "Dead"},  # must be the enum
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SystemParams(**kwargs)

    def test_unlimited_capacity_allowed(self):
        assert SystemParams(max_probes_per_second=None).max_probes_per_second is None

    def test_bad_fraction(self):
        assert SystemParams(percent_bad_peers=20.0).bad_peer_fraction == 0.2


class TestProtocolValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"query_probe": "LFS"},          # replacement-only name
            {"query_pong": "bogus"},
            {"cache_replacement": "MFS"},    # ordering-only name
            {"ping_interval": 0.0},
            {"cache_size": 0},
            {"pong_size": -1},
            {"intro_prob": 1.5},
            {"probe_spacing": 0.0},
            {"parallel_probes": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ProtocolParams(**kwargs)

    def test_star_policies_accepted(self):
        assert ProtocolParams(query_probe="MR*").query_probe == "MR*"
        assert ProtocolParams(cache_replacement="LR*").cache_replacement == "LR*"


class TestNormalization:
    def test_starred_policy_sets_reset_flag(self):
        params = ProtocolParams(query_probe="MR*").normalized()
        assert params.query_probe == "MR"
        assert params.reset_num_results is True

    def test_unstarred_unchanged(self):
        params = ProtocolParams(query_probe="MR")
        assert params.normalized() is params

    def test_replacement_star_normalises(self):
        params = ProtocolParams(cache_replacement="LR*").normalized()
        assert params.cache_replacement == "LR"
        assert params.reset_num_results is True

    def test_uses_starred_policy(self):
        assert ProtocolParams(query_pong="MR*").uses_starred_policy()
        assert not ProtocolParams(query_pong="MR").uses_starred_policy()


class TestAllSamePolicy:
    def test_mfs_maps_replacement_to_lfs(self):
        params = ProtocolParams.all_same_policy("MFS")
        assert params.query_probe == "MFS"
        assert params.query_pong == "MFS"
        assert params.ping_probe == "Random"   # pings stay Random (§6.4)
        assert params.ping_pong == "Random"
        assert params.cache_replacement == "LFS"

    def test_mru_swaps_to_lru(self):
        assert ProtocolParams.all_same_policy("MRU").cache_replacement == "LRU"
        assert ProtocolParams.all_same_policy("LRU").cache_replacement == "MRU"

    def test_mr_star(self):
        params = ProtocolParams.all_same_policy("MR*").normalized()
        assert params.query_probe == "MR"
        assert params.cache_replacement == "LR"
        assert params.reset_num_results is True

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolParams.all_same_policy("LFS")

    def test_overrides_forwarded(self):
        params = ProtocolParams.all_same_policy("MFS", cache_size=50)
        assert params.cache_size == 50


class TestCacheSeedSize:
    def test_paper_rule(self):
        assert default_cache_seed_size(1000) == 10
        assert default_cache_seed_size(5000) == 50

    def test_floor_of_two(self):
        assert default_cache_seed_size(50) == 2

    def test_tiny_network_rejected(self):
        with pytest.raises(ConfigError):
            default_cache_seed_size(1)
