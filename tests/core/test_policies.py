"""Tests for the policy framework and concrete policies."""

from __future__ import annotations

import random

import pytest

from repro.core.params import ProtocolParams
from repro.core.policies import (
    Policy,
    PolicySet,
    get_ordering_policy,
    get_replacement_policy,
    registered_policy_names,
)
from repro.errors import PolicyError
from tests.conftest import cache_of, contest, make_entry, victim_end


@pytest.fixture
def rng():
    return random.Random(17)


@pytest.fixture
def entries():
    """Entries with distinguishable fields for every policy."""
    return [
        make_entry(1, ts=10.0, num_files=500, num_res=0),
        make_entry(2, ts=50.0, num_files=5, num_res=3),
        make_entry(3, ts=30.0, num_files=100, num_res=1),
        make_entry(4, ts=5.0, num_files=50, num_res=2),
    ]


class TestRegistry:
    def test_all_policies_registered(self):
        assert registered_policy_names() == ["LRU", "MFS", "MR", "MRU", "Random"]

    def test_unknown_ordering_policy(self):
        with pytest.raises(PolicyError):
            get_ordering_policy("bogus")

    def test_unknown_replacement_policy(self):
        with pytest.raises(PolicyError):
            get_replacement_policy("bogus")

    def test_star_resolves_to_base(self):
        assert get_ordering_policy("MR*").name == "MR"

    @pytest.mark.parametrize(
        "name", ["MRU*", "LRU*", "MFS*", "Random*", "Random**", "MR**", "*", ""]
    )
    def test_only_mr_may_be_starred(self, name):
        with pytest.raises(PolicyError, match="unknown ordering policy"):
            get_ordering_policy(name)

    def test_a_key_based_policy_must_name_its_field(self):
        with pytest.raises(PolicyError, match="field"):
            Policy("x")

    def test_replacement_reversal_table(self):
        # Replacement names are what gets *evicted*; the key policy is
        # the retain-goal's ordering.
        assert get_replacement_policy("LFS").name == "MFS"
        assert get_replacement_policy("LR").name == "MR"
        assert get_replacement_policy("LR*").name == "MR"
        assert get_replacement_policy("LRU").name == "MRU"
        assert get_replacement_policy("MRU").name == "LRU"


class TestOrderingSemantics:
    def test_mru_prefers_recent(self, entries, rng):
        policy = get_ordering_policy("MRU")
        assert cache_of(entries).select_best(policy, rng).address == 2

    def test_lru_prefers_stale(self, entries, rng):
        policy = get_ordering_policy("LRU")
        assert cache_of(entries).select_best(policy, rng).address == 4

    def test_mfs_prefers_many_files(self, entries, rng):
        policy = get_ordering_policy("MFS")
        assert cache_of(entries).select_best(policy, rng).address == 1

    def test_mr_prefers_many_results(self, entries, rng):
        policy = get_ordering_policy("MR")
        assert cache_of(entries).select_best(policy, rng).address == 2

    def test_order_is_sorted_by_key(self, entries, rng):
        policy = get_ordering_policy("MFS")
        ordered = cache_of(entries).ranking(policy).entries
        assert [e.address for e in ordered] == [1, 3, 4, 2]

    def test_select_top_k(self, entries, rng):
        policy = get_ordering_policy("MFS")
        top2 = cache_of(entries).select_top(policy, 2, rng)
        assert [e.address for e in top2] == [1, 3]

    def test_select_top_zero(self, entries, rng):
        policy = get_ordering_policy("MFS")
        assert cache_of(entries).select_top(policy, 0, rng) == []

    def test_select_best_empty(self, rng):
        policy = get_ordering_policy("MFS")
        assert cache_of([]).select_best(policy, rng) is None

    def test_deterministic_tiebreak_on_address(self, rng):
        policy = get_ordering_policy("MFS")
        tied = [make_entry(7, num_files=10), make_entry(3, num_files=10)]
        assert cache_of(tied).select_best(policy, rng).address == 3


class TestEvictionSemantics:
    def test_lfs_evicts_fewest_files(self, entries, rng):
        policy = get_replacement_policy("LFS")
        assert victim_end(policy, entries).address == 2

    def test_lr_evicts_fewest_results(self, entries, rng):
        policy = get_replacement_policy("LR")
        assert victim_end(policy, entries).address == 1

    def test_lru_evicts_stalest(self, entries, rng):
        policy = get_replacement_policy("LRU")
        assert victim_end(policy, entries).address == 4

    def test_mru_evicts_freshest(self, entries, rng):
        policy = get_replacement_policy("MRU")
        assert victim_end(policy, entries).address == 2

    def test_choose_victim_empty(self, rng):
        assert victim_end(get_replacement_policy("LFS"), []) is None


class TestRandomPolicy:
    def test_randomized_flag(self):
        assert get_ordering_policy("Random").randomized is True
        assert get_ordering_policy("MFS").randomized is False

    def test_select_best_uniform(self, entries):
        policy = get_ordering_policy("Random")
        rng = random.Random(0)
        cache = cache_of(entries)
        picks = {cache.select_best(policy, rng).address for _ in range(200)}
        assert picks == {1, 2, 3, 4}

    def test_order_is_permutation(self, entries):
        policy = get_ordering_policy("Random")
        ordered = cache_of(entries).select_top(policy, 4, random.Random(1))
        assert sorted(e.address for e in ordered) == [1, 2, 3, 4]

    def test_select_top_k_distinct(self, entries):
        policy = get_ordering_policy("Random")
        top = cache_of(entries).select_top(policy, 3, random.Random(2))
        addresses = [e.address for e in top]
        assert len(addresses) == 3
        assert len(set(addresses)) == 3

    def test_select_top_k_larger_than_pool(self, entries):
        policy = get_ordering_policy("Random")
        top = cache_of(entries).select_top(policy, 10, random.Random(3))
        assert sorted(e.address for e in top) == [1, 2, 3, 4]

    def test_victim_uniform(self, entries):
        policy = get_replacement_policy("Random")
        rng = random.Random(4)
        residents, candidate = entries[:-1], entries[-1]
        victims = {
            contest(policy, residents, candidate, rng).address
            for _ in range(200)
        }
        assert victims == {1, 2, 3, 4}


class TestPolicySet:
    def test_from_protocol_default(self):
        policies = PolicySet.from_protocol(ProtocolParams())
        assert policies.query_probe.name == "Random"
        assert policies.replacement.name == "Random"
        assert policies.reset_num_results is False

    def test_from_protocol_mfs_lfs(self):
        policies = PolicySet.from_protocol(
            ProtocolParams(query_pong="MFS", cache_replacement="LFS")
        )
        assert policies.query_pong.name == "MFS"
        assert policies.replacement.name == "MFS"  # LFS key = MFS ordering

    def test_from_protocol_star_sets_reset(self):
        policies = PolicySet.from_protocol(ProtocolParams(query_probe="MR*"))
        assert policies.query_probe.name == "MR"
        assert policies.reset_num_results is True


class TestChooseVictimFrom:
    """A full cache's eviction contest must mirror the combined-list one.

    The contest ``LinkCache.admit`` holds when full — Random's one index
    draw, or a key-based ranking's victim end against the candidate —
    evicts what ``randrange`` over ``residents + [candidate]`` picks (the
    victim end of a ranking of all of them, for a key-based policy), with
    the same RNG consumption.
    """

    @pytest.mark.parametrize(
        "name", ["LFS", "LR", "LR*", "LRU", "MRU", "Random"]
    )
    def test_matches_combined_list_spelling(self, name, entries):
        policy = get_replacement_policy(name)
        candidate = make_entry(9, ts=20.0, num_files=75, num_res=1)
        rng_a = random.Random(99)
        rng_b = random.Random(99)
        if policy.randomized:
            contestants = entries + [candidate]
            expected = contestants[rng_a.randrange(len(contestants))]
        else:
            expected = victim_end(policy, entries + [candidate])
        actual = contest(policy, entries, candidate, rng_b)
        assert actual is expected
        # Identical RNG consumption: the streams stay in lockstep.
        assert rng_a.random() == rng_b.random()

    def test_candidate_can_be_the_victim(self, entries):
        policy = get_replacement_policy("LRU")
        # LRU evicts the oldest ts; make the candidate oldest.
        candidate = make_entry(9, ts=1.0)
        victim = contest(policy, entries, candidate, random.Random(0))
        assert victim is candidate

    def test_candidate_wins_a_tie_only_against_lower_addresses(self):
        policy = get_replacement_policy("LR")
        for address, victim in ((9, 9), (7, 8), (1, 8)):
            residents = [make_entry(a) for a in (4, 8, 6)]
            candidate = make_entry(address)
            picked = contest(policy, residents, candidate, random.Random(0))
            assert picked.address == victim
