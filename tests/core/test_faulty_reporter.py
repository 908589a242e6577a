"""Tests for the faulty-reporter adversary and honest accounting."""

from __future__ import annotations

import random

import pytest

from repro.core.malicious import FaultyReporter
from repro.core.messages import Query
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.core.policies import PolicySet


def make_faulty_reporter(
    address: int,
    *,
    report_mode: str = "inflate",
    report_offset: int = 3,
    library: frozenset[int] = frozenset({1, 2, 3}),
    seed: int = 0,
) -> FaultyReporter:
    """A standalone faulty reporter with self-contained RNGs."""
    protocol = ProtocolParams(cache_size=10).normalized()
    return FaultyReporter(
        address,
        report_mode=report_mode,
        report_offset=report_offset,
        num_files=len(library),
        library=library,
        birth_time=0.0,
        death_time=1e9,
        protocol=protocol,
        policies=PolicySet.from_protocol(protocol),
        max_probes_per_second=None,
        policy_rng=random.Random(seed),
        intro_rng=random.Random(seed + 1),
    )


class TestFaultyReporterReplies:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            make_faulty_reporter(1, report_mode="exaggerate")
        with pytest.raises(ValueError):
            make_faulty_reporter(1, report_offset=0)

    def test_is_faulty_not_malicious(self):
        peer = make_faulty_reporter(1)
        assert peer.faulty is True
        assert peer.malicious is False

    def test_inflate_adds_offset_and_carries_truth(self):
        peer = make_faulty_reporter(1, report_offset=5)
        _, reply = peer.receive_probe(Query(sender=2, target_file=1), 1.0)
        assert reply.num_results == 1 + 5  # owns file 1, claims 6
        assert reply.true_results == 1
        assert reply.verified_results == 1

    def test_inflate_claims_results_even_without_a_match(self):
        peer = make_faulty_reporter(1, report_offset=3)
        _, reply = peer.receive_probe(Query(sender=2, target_file=99), 1.0)
        assert reply.num_results == 3
        assert reply.true_results == 0
        assert reply.verified_results == 0

    def test_suppress_claims_zero_and_carries_truth(self):
        peer = make_faulty_reporter(1, report_mode="suppress")
        _, reply = peer.receive_probe(Query(sender=2, target_file=1), 1.0)
        assert reply.num_results == 0
        assert reply.true_results == 1
        assert peer.suppresses_gossip is True

    def test_suppressing_a_zero_is_not_a_lie(self):
        """A suppressed no-match reply is the honest reply: no
        ``true_results`` tag, so collectors don't count a falsification."""
        peer = make_faulty_reporter(1, report_mode="suppress")
        _, reply = peer.receive_probe(Query(sender=2, target_file=99), 1.0)
        assert reply.num_results == 0
        assert reply.true_results is None

    def test_inflaters_do_not_suppress_gossip(self):
        assert make_faulty_reporter(1).suppresses_gossip is False


def run_sim(seed=13, *, percent_faulty=0.0, mode="inflate", offset=3):
    sim = GuessSimulation(
        SystemParams(
            network_size=80,
            percent_faulty_reporters=percent_faulty,
            faulty_reporter_mode=mode,
            faulty_report_offset=offset,
        ),
        ProtocolParams(cache_size=20),
        seed=seed,
    )
    sim.run(200.0)
    return sim.report()


class TestHonestAccounting:
    def test_inflaters_inflate_only_the_claimed_channel(self):
        report = run_sim(percent_faulty=30.0, mode="inflate")
        assert report.queries > 0
        assert report.results_per_query > report.honest_results_per_query
        assert report.satisfied_queries >= report.honest_satisfied_queries

    def test_suppressors_deflate_the_claimed_channel(self):
        report = run_sim(percent_faulty=30.0, mode="suppress")
        assert report.queries > 0
        assert report.results_per_query < report.honest_results_per_query

    def test_bigger_offset_claims_more(self):
        small = run_sim(percent_faulty=30.0, offset=1)
        large = run_sim(percent_faulty=30.0, offset=10)
        assert large.results_per_query > small.results_per_query
        # The honest channel ignores the offset entirely.
        assert large.honest_results_per_query == pytest.approx(
            small.honest_results_per_query
        )

    def test_no_reporters_means_channels_agree(self):
        report = run_sim(percent_faulty=0.0)
        assert report.honest_results_per_query == report.results_per_query
        assert report.honest_satisfied_queries == report.satisfied_queries

    def test_reporter_population_is_deterministic(self):
        a = run_sim(percent_faulty=20.0, mode="suppress")
        b = run_sim(percent_faulty=20.0, mode="suppress")
        assert a == b

    def test_params_reject_overfull_adversary_mix(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            SystemParams(
                network_size=50,
                percent_bad_peers=60.0,
                percent_faulty_reporters=50.0,
            )
