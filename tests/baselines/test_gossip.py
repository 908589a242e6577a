"""Tests for the gossip (rumor-spreading) search baseline."""

from __future__ import annotations

import random

import pytest

from repro.baselines.extent import PopulationView
from repro.baselines.gnutella import GnutellaOverlay
from repro.baselines.gossip import (
    HOP_DELAY,
    GossipParams,
    GossipPlan,
    GossipRelay,
    GossipSearch,
)
from repro.core.messages import GossipPush, Pong
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.errors import TopologyError, WorkloadError
from repro.sim.rng import RngRegistry
from repro.workload.content import ContentModel
from tests.conftest import make_entry

#: These tests pick targets; nothing is ever sent,
#: so the relay/mediator gets no simulation to send it in.
NO_SIM = None


def overlay_of(n, degree=4, seed=44):
    return GnutellaOverlay(n, degree=degree, rng=random.Random(seed))


def fixed_view(libraries):
    return PopulationView(
        libraries=tuple(frozenset(lib) for lib in libraries),
        content=ContentModel(catalog_size=100),
    )


def search_of(n=30, seed=9, **params):
    overlay = overlay_of(n)
    view = PopulationView.synthesize(n, random.Random(seed))
    return GossipSearch(
        overlay, view, GossipParams(**params), RngRegistry(seed)
    )


class TestGossipParams:
    def test_defaults_are_valid(self):
        GossipParams()

    @pytest.mark.parametrize("kwargs", [
        {"mode": "broadcast"},
        {"fanout": 0},
        {"rounds": 0},
        {"desired_results": 0},
        {"faulty_fraction": -0.1},
        {"faulty_fraction": 1.5},
        {"faulty_mode": "lie"},
        {"report_offset": 0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(WorkloadError):
            GossipParams(**kwargs)

    def test_view_overlay_size_mismatch_rejected(self):
        overlay = overlay_of(10)
        view = PopulationView.synthesize(12, random.Random(1))
        with pytest.raises(TopologyError):
            GossipSearch(overlay, view, GossipParams(), RngRegistry(0))

    def test_source_out_of_range_rejected(self):
        search = search_of(n=10)
        with pytest.raises(TopologyError):
            search.run_query(10, 1)

    def test_workload_needs_queries(self):
        with pytest.raises(WorkloadError):
            search_of(n=10).run_workload(0)


class TestInfectionAccounting:
    @pytest.mark.parametrize("mode", ["push", "pull", "push-pull"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_message_bound_holds(self, mode, seed):
        """TTL bounds total exchanges: messages <= n * fanout * rounds."""
        n, fanout, rounds = 40, 3, 4
        search = search_of(n=n, seed=seed, mode=mode,
                           fanout=fanout, rounds=rounds)
        for source in (0, 7, 19):
            outcome = search.run_query(source, 1)
            assert outcome.messages <= n * fanout * rounds
            assert outcome.rounds_used <= rounds

    @pytest.mark.parametrize("mode", ["push", "pull", "push-pull"])
    def test_infection_dedup_never_double_counts(self, mode):
        """A peer joins the infection tree at most once, so reporters —
        and therefore result counts — are duplicate-free even though
        duplicate contacts happen constantly."""
        n = 25
        overlay = overlay_of(n)
        view = fixed_view([{42}] * n)  # every peer owns the target
        search = GossipSearch(
            overlay, view,
            GossipParams(mode=mode, fanout=3, rounds=8),
            RngRegistry(3),
        )
        outcome = search.run_query(0, 42)
        assert outcome.duplicates > 0  # dedup was actually exercised
        assert len(outcome.reporters) == len(set(outcome.reporters))
        # One honest result per infected reporter, never more.
        assert outcome.honest_results == len(outcome.reporters)
        assert outcome.honest_results <= outcome.infected - 1
        assert outcome.infected <= n

    def test_saturated_rumor_stops_early(self):
        search = search_of(n=10, fanout=4, rounds=50)
        outcome = search.run_query(0, 1)
        assert outcome.rounds_used < 50
        assert outcome.infected == 10

    def test_loads_accumulate_across_queries(self):
        search = search_of(n=20)
        summary = search.run_workload(10)
        assert summary.max_load == max(search.loads)
        assert summary.max_load >= 1
        assert sum(search.loads) == pytest.approx(
            summary.messages_per_query * summary.queries
        )

    def test_same_seed_reproduces_summary(self):
        assert search_of(seed=6).run_workload(8) == \
            search_of(seed=6).run_workload(8)

    def test_push_pull_spreads_at_least_as_far_as_push(self):
        push = search_of(seed=4, mode="push", fanout=2, rounds=3)
        both = search_of(seed=4, mode="push-pull", fanout=2, rounds=3)
        assert both.run_query(0, 1).infected >= push.run_query(0, 1).infected


class TestFaultyReporting:
    def test_inflation_raises_claimed_above_honest(self):
        honest = search_of(seed=12, faulty_fraction=0.0).run_workload(30)
        faulty = search_of(seed=12, faulty_fraction=0.3,
                           faulty_mode="inflate").run_workload(30)
        # Roles come from gossip:roles, spread from gossip:spread — so
        # inflation perturbs *only* the claimed channel.
        assert faulty.honest_results_per_query == \
            honest.honest_results_per_query
        assert faulty.satisfaction_rate == honest.satisfaction_rate
        assert faulty.claimed_results_per_query > \
            faulty.honest_results_per_query

    def test_suppression_loses_reports(self):
        honest = search_of(seed=12, faulty_fraction=0.0).run_workload(30)
        faulty = search_of(seed=12, faulty_fraction=0.3,
                           faulty_mode="suppress").run_workload(30)
        assert faulty.suppressed_reports > 0
        assert faulty.honest_results_per_query < \
            honest.honest_results_per_query
        assert faulty.satisfaction_rate <= honest.satisfaction_rate

    def test_no_faulty_peers_means_channels_agree(self):
        summary = search_of(seed=5).run_workload(20)
        assert summary.claimed_results_per_query == \
            summary.honest_results_per_query
        assert summary.suppressed_reports == 0

    def test_suppressors_never_report_own_results(self):
        n = 15
        overlay = overlay_of(n)
        view = fixed_view([{42}] * n)
        search = GossipSearch(
            overlay, view,
            GossipParams(fanout=3, rounds=6, faulty_fraction=0.4,
                         faulty_mode="suppress"),
            RngRegistry(7),
        )
        outcome = search.run_query(0, 42)
        assert not set(outcome.reporters) & search.faulty


class TestGossipPlanRelay:
    def test_plan_rejects_bad_knobs(self):
        with pytest.raises(WorkloadError):
            GossipPlan(fanout=-1)
        with pytest.raises(WorkloadError):
            GossipPlan(ttl=-1)

    @pytest.mark.parametrize("plan", [
        None, GossipPlan(), GossipPlan(fanout=0), GossipPlan(fanout=2, ttl=0)
    ])
    def test_from_plan_gates_noops_to_none(self, plan):
        assert GossipRelay.from_plan(plan, RngRegistry(0), NO_SIM) is None

    def test_from_plan_builds_relay_for_armed_plan(self):
        relay = GossipRelay.from_plan(GossipPlan(fanout=2, ttl=2),
                                      RngRegistry(0), NO_SIM)
        assert relay is not None
        assert relay.plan.fanout == 2

    def test_pick_targets_excludes_seen_and_respects_fanout(self):
        relay = GossipRelay.from_plan(GossipPlan(fanout=2, ttl=1),
                                      RngRegistry(1), NO_SIM)
        candidates = [10, 11, 12, 13]
        picked = relay.pick_targets(candidates, {11, 13})
        assert picked == [10, 12]  # <= fanout fresh: all of them, in order
        picked = relay.pick_targets(candidates, set())
        assert len(picked) == 2
        assert set(picked) <= set(candidates)

    def test_rumor_carries_the_seed_time_snapshot(self, monkeypatch):
        """A pong shows the responder's residents and the rumor outlives
        the event that harvested it, so ``seed_rumor`` snapshots: a
        responder touching its entries before the hop fires must not
        change what the hop's ``GossipPush`` delivers."""
        sim = GuessSimulation(
            SystemParams(network_size=20, query_rate=0.0),
            ProtocolParams(cache_size=10),
            seed=3,
            gossip=GossipPlan(fanout=2, ttl=1),
        )
        carrier = next(p for p in sim.store.live_peers() if len(p.link_cache))
        residents = (make_entry(901, ts=1.0, num_res=1), make_entry(902, ts=2.0))
        pushes = []
        probe = sim.transport.probe

        def recording(src, dst, message, time):
            if isinstance(message, GossipPush) and message.origin == carrier.address:
                pushes.append(message)
            return probe(src, dst, message, time)

        monkeypatch.setattr(sim.transport, "probe", recording)
        sim.gossip.seed_rumor(carrier, Pong(900, residents), sim.engine.now)
        for resident in residents:
            resident.ts += 100.0
            resident.num_res = 9
        sim.run(HOP_DELAY)
        harvested = [p for p in pushes if p.entries[0].address == 901]
        assert harvested
        for push in harvested:
            assert all(
                sent is not shown for sent, shown in zip(push.entries, residents)
            )
            assert [(e.address, e.ts, e.num_res) for e in push.entries] == [
                (901, 1.0, 1), (902, 2.0, 0),
            ]
