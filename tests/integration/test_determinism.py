"""End-to-end determinism: same (seed, params) ⇒ bit-identical runs.

The dynamic oracle behind the static rules in ``repro.devtools``: a full
:class:`GuessSimulation` — churn, pings, query bursts, malicious pongs —
is run twice with ``trace_hash=True`` and the executed-event digests must
match exactly.  A single out-of-order event, stray RNG draw, or unordered
iteration anywhere in the stack changes the digest.
"""

from __future__ import annotations

import pytest

from repro.baselines.gossip import GossipPlan
from repro.core.network_sim import GuessSimulation
from repro.core.params import BadPongBehavior, ProtocolParams, SystemParams
from repro.experiments.executor import (
    ProcessTrialExecutor,
    TrialSpec,
    execute_trial,
)
from repro.experiments.runner import run_guess_config
from repro.faults.plan import FaultPlan
from repro.freshness import CacheSizing, FreshnessPlan
from repro.observe.manifest import ManifestRecorder, activated, verify_manifest
from repro.observe.profiler import GLOBAL_PHASE, Profiler
from repro.observe.profiler import activated as profiling
from repro.resilience import (
    ChurnStorm,
    FlashCrowd,
    ResiliencePolicy,
    ScenarioPlan,
)

DURATION = 400.0

#: ``report_fingerprint`` of the pinned cells, recorded at 02dd4ce (the
#: commit before the query cache became the candidate pool; "keyed" at
#: d231bbc, the commit before the link cache kept its orders; "attack-dead"
#: and "attack-good" at 87661ed, the commit before the peer store became
#: the one live roster).  The
#: trace digest folds ``(time, priority, seq, label)`` per fired event and
#: a probe's outcome schedules nothing unless gossip or freshness is
#: armed, so the digests cannot see the query path
#: (``TestDigestBlindness``); these can.
REPORT_PINS = {
    "clean": "1b321497e725985c99748a2a1d570e10d2a83ddf70ddba1afc2f3fe94cf35329",
    "attack": "681b5a3c4f4d0c1accf584505904c5626c6ab52fca4449f765599b00357ce886",
    "attack-dead": "eed79fd954ecfcf028db315bfbc1f5245a0f76b116e8ef88d8f11eb5bffdc5a4",
    "attack-good": "d37a65f930f1a2a75c41ec73fc45f67001d5550dc9cbdd5825999037eb41093b",
    "loss-retry": "f734e98639b9726fd8fe9b5d9c3b7934fbbe2d5f4dccdcca5c766c6ea6f7791a",
    "gossip": "103583999ac0e41f11426cec7e69e17cb9a8ad53d5c24ad8a6cee0e13f6e85bb",
    "freshness": "ffe01b90b2724bccf88855ae9b2685d99d9c2555ed2ceeebb3ade6ead284084f",
    "all-armed": "9d2236176decafb704a7c06591bc9a8ebe01ae48ece4882795fd483475c7480d",
    "keyed": "046ecd63b4e14daa527fccb68bd67ba15b9fd03ba6b59f32848cb8630d6637ad",
}


def report_fingerprint(report) -> str:
    """:meth:`SimulationReport.fingerprint`, the name every pin here reads."""
    return report.fingerprint()


def run_once(seed: int, *, percent_bad: float = 0.0,
             behavior: BadPongBehavior = BadPongBehavior.DEAD,
             faults: FaultPlan | None = None, probe_retries: int = 0,
             profiler: Profiler | None = None,
             scenarios: ScenarioPlan | None = None,
             resilience: ResiliencePolicy | None = None,
             gossip: GossipPlan | None = None,
             freshness: FreshnessPlan | None = None):
    """One small, full-featured trial; returns (digest, report).

    With a ``profiler`` the trial runs under it, as ``run_all`` runs one.
    """
    spec = TrialSpec(
        SystemParams(
            network_size=100,
            percent_bad_peers=percent_bad,
            bad_pong_behavior=behavior,
        ),
        ProtocolParams(cache_size=30, probe_retries=probe_retries),
        duration=DURATION,
        warmup=0.0,
        seed=seed,
        faults=faults,
        trace_hash=True,
        scenarios=scenarios,
        resilience=resilience,
        gossip=gossip,
        freshness=freshness,
    )
    if profiler is None:
        report = execute_trial(spec)
    else:
        with profiling(profiler):
            report = execute_trial(spec)
    return report.trace_digest, report


class TestSameSeedBitForBit:
    def test_trace_digests_identical(self):
        digest_a, report_a = run_once(7)
        digest_b, report_b = run_once(7)
        assert digest_a is not None
        assert digest_a == digest_b
        assert report_a.probes_per_query == report_b.probes_per_query
        assert report_a.unsatisfied_rate == report_b.unsatisfied_rate
        assert report_a.queries == report_b.queries

    def test_different_seeds_diverge(self):
        digest_a, _ = run_once(7)
        digest_b, _ = run_once(8)
        assert digest_a != digest_b

    @pytest.mark.parametrize(
        "behavior", [BadPongBehavior.DEAD, BadPongBehavior.BAD, BadPongBehavior.GOOD]
    )
    def test_malicious_rosters_are_deterministic(self, behavior):
        """Regression for the set-ordered attack rosters (RD003 fixes).

        ``AttackDirectory``'s samplers once drew from sets of live peers,
        and the pong contents depended on set iteration order.  They now
        read the peer store's ascending rosters (``BAD``, ``GOOD``) and
        its death-order ``departed`` list (``DEAD``); every probe of a
        malicious peer draws from one of them.  This checks the run
        repeats in-process; ``REPORT_PINS`` ``attack``, ``attack-dead``
        and ``attack-good`` pin each behaviour across versions.
        """
        digest_a, report_a = run_once(11, percent_bad=10.0, behavior=behavior)
        digest_b, report_b = run_once(11, percent_bad=10.0, behavior=behavior)
        assert digest_a == digest_b
        assert report_a.probes_per_query == report_b.probes_per_query

    def test_trace_digest_none_without_sanitizer(self):
        sim = GuessSimulation(
            SystemParams(network_size=50), ProtocolParams(), seed=3
        )
        sim.run(50.0)
        assert sim.trace_digest is None


class TestGoldenDigests:
    """Cross-version pins for the exact event stream.

    The in-process comparisons above catch *nondeterminism*; these catch
    *drift*: an optimization that is deterministic but subtly reorders
    events, perturbs an RNG draw, or changes a float would pass every
    same-seed test while silently changing every result in the repo.

    The digests were recorded before the PR-2 kernel optimizations
    (Fenwick-backed friend sampling, running-sum health snapshots,
    no-copy eviction contests, args-based event dispatch) and those
    optimizations were required to reproduce them bit-for-bit.  They
    must never drift; a legitimate semantic change to the simulation
    must say so loudly by re-recording them in the same commit.
    """

    def test_clean_network_digest_pinned(self):
        digest, report = run_once(7)
        assert digest == "6433f3abe18fda0f316241089d67313b"
        assert report_fingerprint(report) == REPORT_PINS["clean"]
        assert report.queries > 0

    def test_colluding_attack_digest_pinned(self):
        digest, report = run_once(
            11, percent_bad=10.0, behavior=BadPongBehavior.BAD
        )
        assert digest == "23d74325e25c2c9e44279d38a317edbe"
        assert report_fingerprint(report) == REPORT_PINS["attack"]

    @pytest.mark.parametrize(
        ("behavior", "pin"),
        [(BadPongBehavior.DEAD, "attack-dead"), (BadPongBehavior.GOOD, "attack-good")],
    )
    def test_non_colluding_attack_digests_pinned(self, behavior, pin):
        """The departed-address and good-roster pongs, pinned like ``BAD``.

        Pong contents schedule nothing, so all three behaviours share the
        colluding digest; only the fingerprint sees which addresses the
        attackers handed out, and in which order.
        """
        digest, report = run_once(11, percent_bad=10.0, behavior=behavior)
        assert digest == "23d74325e25c2c9e44279d38a317edbe"
        assert report_fingerprint(report) == REPORT_PINS[pin]

    def test_packet_loss_retry_digest_pinned(self):
        """Third pin: a packet-loss cell with retries enabled.

        The digest *equals* the clean pin on purpose: the executed event
        schedule (query bursts, pings, churn) comes from RNG streams that
        loss and retry draws cannot touch, and probe outcomes resolve
        inside the query event rather than as scheduled events (see
        ``TestFaultDeterminism.test_faults_actually_change_the_run``).
        If loss/retry handling ever starts scheduling events or stealing
        draws from protocol streams, this digest moves and the report
        assertions below pin the measured behaviour that must differ
        from the clean run.
        """
        digest, report = run_once(
            7, faults=FaultPlan(loss_rate=0.05), probe_retries=2
        )
        assert digest == "6433f3abe18fda0f316241089d67313b"
        assert report_fingerprint(report) == REPORT_PINS["loss-retry"]
        assert report.spurious_timeout_probes > 0
        assert report.probe_retries > 0
        assert report.retry_recovered_probes > 0


class TestGossipAssistedPins:
    """Fourth golden pin: the gossip-assisted GUESS hybrid.

    A fixed-seed cell with epidemic pong dissemination armed
    (``GossipPlan(fanout=2, ttl=2)``) is pinned, and the *disabled* plan
    (``fanout=0``) must be contractually invisible — it reproduces every
    pre-gossip pin bit for bit, because :meth:`GossipRelay.from_plan`
    returns ``None`` and the ping path keeps its exact pre-gossip
    branch.
    """

    #: The armed cell actually disseminates: the digest must differ from
    #: the clean pin (gossip hops are scheduled events) and must never
    #: drift across versions.  Re-pinned when query-reply pongs started
    #: seeding rumors too (previously only ping harvests did — the armed
    #: relay now schedules strictly more gossip hops; the old digest was
    #: 867064cac1a1a5ab827994c71d74b2fb).
    ARMED = GossipPlan(fanout=2, ttl=2)
    PIN = "02dded03f40b06909cb76f0b6d7c07f3"

    def test_armed_gossip_digest_pinned(self):
        digest, report = run_once(7, gossip=self.ARMED)
        assert digest == self.PIN
        assert report_fingerprint(report) == REPORT_PINS["gossip"]
        assert report.gossip_rumors > 0
        assert report.gossip_pushes > 0
        assert report.gossip_imports > 0

    def test_armed_gossip_actually_changes_the_run(self):
        clean_digest, _ = run_once(7)
        armed_digest, _ = run_once(7, gossip=self.ARMED)
        assert armed_digest != clean_digest

    def test_disabled_plan_reproduces_clean_pin(self):
        digest, report = run_once(7, gossip=GossipPlan(fanout=0))
        assert digest == "6433f3abe18fda0f316241089d67313b"
        assert report.gossip_rumors == 0
        assert report.gossip_pushes == 0

    def test_zero_ttl_plan_reproduces_clean_pin(self):
        digest, _ = run_once(7, gossip=GossipPlan(fanout=2, ttl=0))
        assert digest == "6433f3abe18fda0f316241089d67313b"

    def test_disabled_plan_reproduces_attack_pin(self):
        digest, _ = run_once(
            11, percent_bad=10.0, behavior=BadPongBehavior.BAD,
            gossip=GossipPlan(fanout=0),
        )
        assert digest == "23d74325e25c2c9e44279d38a317edbe"

    def test_disabled_plan_reproduces_loss_retry_pin(self):
        digest, _ = run_once(
            7, faults=FaultPlan(loss_rate=0.05), probe_retries=2,
            gossip=GossipPlan(fanout=0),
        )
        assert digest == "6433f3abe18fda0f316241089d67313b"

    def test_parallel_trials_identical_to_serial(self):
        """Serial == ``workers=2`` for the gossip cell: trial fan-out
        over a process pool returns byte-identical reports."""
        kwargs = dict(
            duration=120.0,
            warmup=40.0,
            trials=2,
            base_seed=29,
            gossip=self.ARMED,
        )
        serial = run_guess_config(
            SystemParams(network_size=60), ProtocolParams(cache_size=15),
            workers=1, **kwargs,
        )
        parallel = run_guess_config(
            SystemParams(network_size=60), ProtocolParams(cache_size=15),
            workers=2, **kwargs,
        )
        assert serial == parallel
        assert sum(r.gossip_pushes for r in serial) > 0


class TestFreshnessPins:
    """Fifth golden pin: push invalidation + heterogeneous cache sizing.

    A fixed-seed cell with the freshness layer armed (budgeted departure
    notices, interest-path forwarding, power-law cache sizing) is
    pinned, and a *disabled* :class:`FreshnessPlan` must be
    contractually invisible — :meth:`FreshnessMediator.from_plan`
    returns ``None`` for it, so every earlier pin reproduces bit for
    bit.
    """

    #: The armed cell actually invalidates: purged receivers forward the
    #: notice as scheduled ``freshness`` events, so the digest must
    #: differ from the clean pin and never drift across versions.
    ARMED = FreshnessPlan(
        notify_budget=3, depth=2, sizing=CacheSizing(policy="power-law")
    )
    PIN = "a28d28449b4e7e6f6317be5f8ab6a815"

    def test_armed_freshness_digest_pinned(self):
        digest, report = run_once(7, freshness=self.ARMED)
        assert digest == self.PIN
        assert report_fingerprint(report) == REPORT_PINS["freshness"]
        assert report.freshness_notices > 0
        assert report.freshness_notices_delivered > 0
        assert report.freshness_purges > 0
        assert report.freshness_refresh_imports > 0

    def test_armed_freshness_actually_changes_the_run(self):
        clean_digest, _ = run_once(7)
        armed_digest, _ = run_once(7, freshness=self.ARMED)
        assert armed_digest != clean_digest

    def test_disabled_plan_reproduces_clean_pin(self):
        digest, report = run_once(7, freshness=FreshnessPlan())
        assert digest == "6433f3abe18fda0f316241089d67313b"
        assert report.freshness_notices == 0
        assert report.freshness_purges == 0

    def test_zero_depth_plan_reproduces_clean_pin(self):
        digest, _ = run_once(
            7, freshness=FreshnessPlan(notify_budget=4, depth=0)
        )
        assert digest == "6433f3abe18fda0f316241089d67313b"

    def test_disabled_plan_reproduces_attack_pin(self):
        digest, _ = run_once(
            11, percent_bad=10.0, behavior=BadPongBehavior.BAD,
            freshness=FreshnessPlan(),
        )
        assert digest == "23d74325e25c2c9e44279d38a317edbe"

    def test_disabled_plan_reproduces_loss_retry_pin(self):
        digest, _ = run_once(
            7, faults=FaultPlan(loss_rate=0.05), probe_retries=2,
            freshness=FreshnessPlan(),
        )
        assert digest == "6433f3abe18fda0f316241089d67313b"

    def test_disabled_plan_reproduces_armed_gossip_pin(self):
        digest, _ = run_once(
            7, gossip=TestGossipAssistedPins.ARMED, freshness=FreshnessPlan()
        )
        assert digest == TestGossipAssistedPins.PIN

    def test_stale_split_is_recorded_without_a_plan(self):
        """The fresh/stale dead-probe split is pure accounting — it is
        live even with no plan, and never exceeds the dead totals."""
        _, report = run_once(7)
        assert report.stale_dead_query_probes <= report.dead_probes
        assert report.stale_dead_pings <= report.dead_pings
        assert report.stale_dead_query_probes + report.stale_dead_pings > 0

    def test_parallel_trials_identical_to_serial(self):
        """Serial == ``workers=2`` for the freshness cell: trial fan-out
        over a process pool returns byte-identical reports (the plan,
        nested sizing included, must pickle)."""
        # Notices fire only at (post-warmup) departures, so this cell
        # runs longer than the gossip one to guarantee a few deaths.
        kwargs = dict(
            duration=280.0,
            warmup=20.0,
            trials=2,
            base_seed=31,
            freshness=self.ARMED,
        )
        serial = run_guess_config(
            SystemParams(network_size=60), ProtocolParams(cache_size=15),
            workers=1, **kwargs,
        )
        parallel = run_guess_config(
            SystemParams(network_size=60), ProtocolParams(cache_size=15),
            workers=2, **kwargs,
        )
        assert serial == parallel
        assert sum(r.freshness_notices for r in serial) > 0


class TestObservationInvisibility:
    """Observers attached ⇒ every pinned digest still bit-identical.

    The observability layer's core contract: a trial run under a
    profiler only has the event count the engine already keeps read
    after it — the profiler never schedules events, draws randomness, or
    mutates protocol state — so profiling reproduces the golden digests
    exactly.
    """

    def test_clean_pin_reproduced_with_observation(self):
        profiler = Profiler()
        digest, report = run_once(7, profiler=profiler)
        assert digest == "6433f3abe18fda0f316241089d67313b"
        assert report.queries > 0
        assert profiler._stats[GLOBAL_PHASE].events > 0

    def test_attack_pin_reproduced_with_observation(self):
        digest, _ = run_once(
            11, percent_bad=10.0, behavior=BadPongBehavior.BAD,
            profiler=Profiler(),
        )
        assert digest == "23d74325e25c2c9e44279d38a317edbe"

    def test_loss_retry_pin_reproduced_with_observation(self):
        digest, _ = run_once(
            7, faults=FaultPlan(loss_rate=0.05), probe_retries=2,
            profiler=Profiler(),
        )
        assert digest == "6433f3abe18fda0f316241089d67313b"

    def test_reports_identical_with_and_without_observation(self):
        _, plain = run_once(7)
        _, observed = run_once(7, profiler=Profiler())
        assert plain == observed


class TestScenarioInvisibility:
    """The resilience layer's side of the determinism contract.

    An all-noop :class:`ScenarioPlan` and ``resilience=None`` must be
    *contractually invisible* — the identical event stream, pinned
    against the golden digests above.
    Armed scenarios must be deterministic while actually changing the
    run.
    """

    #: All components present but disabled: zero-fraction storm,
    #: unit-multiplier crowd.  Must be indistinguishable from no plan.
    NOOP = ScenarioPlan(
        storms=(ChurnStorm(start=100.0, width=20.0, fraction=0.0),),
        crowds=(FlashCrowd(start=100.0, end=300.0, multiplier=1.0),),
    )

    STORMY = ScenarioPlan(
        storms=(ChurnStorm(start=150.0, width=20.0, fraction=0.4),),
        crowds=(FlashCrowd(start=150.0, end=350.0, multiplier=3.0),),
    )

    def test_noop_plan_reproduces_clean_pin(self):
        digest, _ = run_once(
            7, scenarios=self.NOOP, resilience=None
        )
        assert digest == "6433f3abe18fda0f316241089d67313b"

    def test_noop_plan_reproduces_attack_pin(self):
        digest, _ = run_once(
            11, percent_bad=10.0, behavior=BadPongBehavior.BAD,
            scenarios=self.NOOP, resilience=None,
        )
        assert digest == "23d74325e25c2c9e44279d38a317edbe"

    def test_noop_plan_reproduces_loss_retry_pin(self):
        digest, _ = run_once(
            7, faults=FaultPlan(loss_rate=0.05), probe_retries=2,
            scenarios=self.NOOP, resilience=None,
        )
        assert digest == "6433f3abe18fda0f316241089d67313b"

    def test_reports_identical_with_and_without_noop_plan(self):
        _, plain = run_once(7)
        _, gated = run_once(
            7, scenarios=self.NOOP, resilience=None
        )
        assert plain == gated

    def test_stormy_run_is_deterministic(self):
        digest_a, report_a = run_once(7, scenarios=self.STORMY)
        digest_b, report_b = run_once(7, scenarios=self.STORMY)
        assert digest_a == digest_b
        assert report_a == report_b

    def test_storm_actually_changes_the_run(self):
        # Unlike faults, a storm schedules real events (forced deaths)
        # and the crowd re-times query bursts, so the digest must move.
        clean_digest, clean = run_once(7)
        storm_digest, stormy = run_once(7, scenarios=self.STORMY)
        assert storm_digest != clean_digest
        assert stormy.deaths > clean.deaths

    def test_armed_resilience_is_deterministic_under_storm(self):
        digest_a, report_a = run_once(
            7, probe_retries=2,
            scenarios=self.STORMY, resilience=ResiliencePolicy.all_on(),
        )
        digest_b, report_b = run_once(
            7, probe_retries=2,
            scenarios=self.STORMY, resilience=ResiliencePolicy.all_on(),
        )
        assert digest_a == digest_b
        assert report_a == report_b


class TestFaultDeterminism:
    """The fault subsystem's side of the determinism contract.

    An all-zeros :class:`FaultPlan` must be *contractually invisible* —
    not merely equivalent output, but the identical event stream, pinned
    against the golden digests above.  Non-trivial plans must be fully
    deterministic (same seed + same plan ⇒ same digest) while actually
    changing the run.
    """

    FAULTY = FaultPlan(loss_rate=0.05)

    def test_all_zero_plan_reproduces_pinned_golden_digest(self):
        digest, _ = run_once(7, faults=FaultPlan())
        assert digest == "6433f3abe18fda0f316241089d67313b"

    def test_all_zero_plan_invisible_under_attack_roster(self):
        digest, _ = run_once(
            11, percent_bad=10.0, behavior=BadPongBehavior.BAD,
            faults=FaultPlan(),
        )
        assert digest == "23d74325e25c2c9e44279d38a317edbe"

    def test_faulty_run_is_deterministic(self):
        digest_a, report_a = run_once(7, faults=self.FAULTY)
        digest_b, report_b = run_once(7, faults=self.FAULTY)
        assert digest_a == digest_b
        assert report_a.probes_per_query == report_b.probes_per_query
        assert (
            report_a.spurious_timeout_probes
            == report_b.spurious_timeout_probes
        )

    def test_faults_actually_change_the_run(self):
        # The executed *event schedule* (queries, pings, churn) comes from
        # streams faults cannot touch, so the digest may legitimately
        # match the clean run; the measured behaviour must not.
        _, clean = run_once(7)
        _, faulty = run_once(7, faults=self.FAULTY)
        assert faulty.spurious_timeout_probes + faulty.spurious_dead_pings > 0
        assert faulty.wrongful_evictions > 0
        assert clean.spurious_timeout_probes == 0
        assert faulty.probes_per_query != clean.probes_per_query

    def test_retry_enabled_run_is_deterministic(self):
        plan = FaultPlan(loss_rate=0.1)
        digest_a, report_a = run_once(7, faults=plan, probe_retries=2)
        digest_b, report_b = run_once(7, faults=plan, probe_retries=2)
        assert digest_a == digest_b
        assert report_a.retry_recovery_rate == report_b.retry_recovery_rate
        assert report_a.probe_retries + report_a.ping_retries > 0
        assert report_a.retry_recovered_probes + report_a.ping_retry_recoveries > 0


class TestAllArmedPin:
    """Sixth pin, and the first armed *combination*: resilience (breakers
    included), gossip and freshness in one run.

    It is the only cell in which a breaker trip sends an overload notice
    (559 notices against 24 with ``resilience=None``), so it is what
    holds the gossip and invalidation hop handlers — and the overload
    branch of the ping path — still while they move between modules.
    Recorded at 9ccef5c, before the handlers left ``network_sim.py``.
    The op counts are exact, not ``> 0``: they are noise-free, so a
    refactor that keeps the digest but books a probe twice still fails.
    """

    SYSTEM = SystemParams(network_size=200, max_probes_per_second=2)
    PROTOCOL = ProtocolParams(cache_size=20, ping_interval=5.0)
    PLANS = dict(
        resilience=ResiliencePolicy.all_on(),
        gossip=GossipPlan(fanout=2, ttl=2),
        freshness=FreshnessPlan(notify_budget=3, depth=2),
    )
    PIN = "688aed3fb71c039e6a0c2d320e8631dd"
    OP_COUNTS = {
        "freshness_notices": 559,
        "freshness_purges": 46,
        "freshness_refresh_imports": 729,
        "gossip_rumors": 15923,
        "gossip_pushes": 39138,
        "gossip_suppressed_forwards": 0,
        "suppressed_pings": 24,
        "transport_probes_sent": 61105,
    }

    def run_cell(self, **overrides):
        sim = GuessSimulation(
            self.SYSTEM, self.PROTOCOL, seed=7, trace_hash=True,
            **{**self.PLANS, **overrides},
        )
        sim.run(200.0)
        return sim.trace_digest, sim.report()

    def test_all_armed_digest_and_op_counts_pinned(self):
        digest, report = self.run_cell()
        assert digest == self.PIN
        assert report_fingerprint(report) == REPORT_PINS["all-armed"]
        counts = {name: getattr(report, name) for name in self.OP_COUNTS}
        assert counts == self.OP_COUNTS

    def test_overload_notices_actually_fire(self):
        # Without breakers no ping trips one: departures alone notify.
        digest, report = self.run_cell(resilience=None)
        assert digest != self.PIN
        assert report.freshness_notices < self.OP_COUNTS["freshness_notices"]

    def test_parallel_trials_identical_to_serial(self):
        kwargs = dict(
            duration=100.0, warmup=20.0, trials=2, base_seed=37, **self.PLANS
        )
        serial = run_guess_config(
            self.SYSTEM, self.PROTOCOL, workers=1, **kwargs
        )
        parallel = run_guess_config(
            self.SYSTEM, self.PROTOCOL, workers=2, **kwargs
        )
        assert serial == parallel
        assert sum(r.freshness_notices for r in serial) > 0
        assert sum(r.gossip_pushes for r in serial) > 0


class TestKeyedPin:
    """Seventh pin, and the only key-based one: every other cell runs the
    all-Random defaults, so no other pin sees a keyed pong, ping target
    or eviction contest.

    All three ranked fields and both directions: QueryPong MFS
    (``num_files``, high), PingProbe MRU and PingPong LRU (``ts``, high
    and low), LR* replacement (``num_res``, evict low) with the MR*
    reset, and a key-based QueryProbe heap.
    """

    SYSTEM = SystemParams(network_size=100)
    PROTOCOL = ProtocolParams(
        cache_size=30,
        query_probe="MR*",
        query_pong="MFS",
        ping_probe="MRU",
        ping_pong="LRU",
        cache_replacement="LR*",
    )

    def test_keyed_fingerprint_pinned(self):
        assert self.PROTOCOL.normalized().reset_num_results
        sim = GuessSimulation(self.SYSTEM, self.PROTOCOL, seed=7, trace_hash=True)
        sim.run(DURATION)
        report = sim.report()
        assert sim.trace_digest == "6433f3abe18fda0f316241089d67313b"
        assert report_fingerprint(report) == REPORT_PINS["keyed"]


class TestReportPins:
    """The seven pinned cells as ``TrialSpec``s on a two-process pool.

    The serial arm is asserted beside each digest above; this is the
    ``workers=2`` arm: the same digests *and* the same report
    fingerprints come back from worker processes.
    """

    @staticmethod
    def spec(seed, *, percent_bad=0.0, behavior=BadPongBehavior.DEAD,
             probe_retries=0, **plans) -> TrialSpec:
        """``run_once`` as data (same sizes, same defaults)."""
        return TrialSpec(
            SystemParams(
                network_size=100,
                percent_bad_peers=percent_bad,
                bad_pong_behavior=behavior,
            ),
            ProtocolParams(cache_size=30, probe_retries=probe_retries),
            duration=DURATION, warmup=0.0, seed=seed, trace_hash=True, **plans,
        )

    def test_digests_and_fingerprints_hold_on_two_workers(self):
        pinned = {
            "clean": (self.spec(7), "6433f3abe18fda0f316241089d67313b"),
            "attack": (
                self.spec(11, percent_bad=10.0, behavior=BadPongBehavior.BAD),
                "23d74325e25c2c9e44279d38a317edbe",
            ),
            "attack-dead": (
                self.spec(11, percent_bad=10.0, behavior=BadPongBehavior.DEAD),
                "23d74325e25c2c9e44279d38a317edbe",
            ),
            "attack-good": (
                self.spec(11, percent_bad=10.0, behavior=BadPongBehavior.GOOD),
                "23d74325e25c2c9e44279d38a317edbe",
            ),
            "loss-retry": (
                self.spec(7, probe_retries=2, faults=FaultPlan(loss_rate=0.05)),
                "6433f3abe18fda0f316241089d67313b",
            ),
            "gossip": (
                self.spec(7, gossip=TestGossipAssistedPins.ARMED),
                TestGossipAssistedPins.PIN,
            ),
            "freshness": (
                self.spec(7, freshness=TestFreshnessPins.ARMED),
                TestFreshnessPins.PIN,
            ),
            "all-armed": (
                TrialSpec(
                    TestAllArmedPin.SYSTEM, TestAllArmedPin.PROTOCOL,
                    duration=200.0, warmup=0.0, seed=7, trace_hash=True,
                    **TestAllArmedPin.PLANS,
                ),
                TestAllArmedPin.PIN,
            ),
            "keyed": (
                TrialSpec(
                    TestKeyedPin.SYSTEM, TestKeyedPin.PROTOCOL,
                    duration=DURATION, warmup=0.0, seed=7, trace_hash=True,
                ),
                "6433f3abe18fda0f316241089d67313b",
            ),
        }
        with ProcessTrialExecutor(workers=2) as pool:
            reports = pool.run_trials([spec for spec, _ in pinned.values()])
            assert pool.pool_started
        got = {
            name: (report.trace_digest, report_fingerprint(report))
            for name, report in zip(pinned, reports)
        }
        assert got == {
            name: (digest, REPORT_PINS[name])
            for name, (_, digest) in pinned.items()
        }


class TestDigestBlindness:
    """What "digest bit-identical" does *not* say.

    A query's probes resolve inside its burst event: unless gossip or
    freshness is armed, no probe outcome schedules anything, so the
    executed-event stream — all the trace digest folds — is the same
    whatever the query loop did.  A change to the query path is held by
    ``REPORT_PINS`` (and the op counts of ``TestAllArmedPin``), never by
    a digest alone.
    """

    @pytest.fixture(scope="class")
    def one_and_ten_walkers(self):
        reports = []
        for walkers in (1, 10):
            sim = GuessSimulation(
                SystemParams(network_size=100),
                ProtocolParams(cache_size=30, parallel_probes=walkers),
                seed=7,
                trace_hash=True,
            )
            sim.run(DURATION)
            reports.append(sim.report())
        return reports

    def test_the_digest_cannot_tell_one_walker_from_ten(self, one_and_ten_walkers):
        serial, wide = one_and_ten_walkers
        assert serial.trace_digest == wide.trace_digest
        assert serial.trace_digest == "6433f3abe18fda0f316241089d67313b"
        assert serial.queries == wide.queries
        assert serial.total_probes < wide.total_probes

    def test_the_report_fingerprint_can(self, one_and_ten_walkers):
        serial, wide = one_and_ten_walkers
        assert serial.trace_digest == wide.trace_digest
        assert serial.fingerprint() != wide.fingerprint()

    def test_a_manifest_doctored_to_ten_walkers_fails_to_verify(self):
        recorder = ManifestRecorder()
        with activated(recorder):
            run_guess_config(
                SystemParams(network_size=100), ProtocolParams(cache_size=30),
                duration=DURATION, warmup=0.0, trials=1, base_seed=7,
            )
        manifest = recorder.build(
            profile="micro", suites=["pair"], workers=1, wall_clock_seconds=0.0
        )
        (entry,) = manifest["configs"]
        assert entry["protocol"]["parallel_probes"] == 1
        entry["protocol"]["parallel_probes"] = 10
        # The digest still matches; the fingerprint does not.
        (problem,) = verify_manifest(manifest)
        assert problem.startswith("config 0: trial 0: report fingerprint diverges")
