"""The paper's evaluation claims (§6: Table 3, Figures 3-21), one row each.

A :class:`Claim` names the artifact, states the claim, gives the paper's
own number where it states one, and holds a predicate over the runs it
reads.  A run is either a config of :data:`CONFIGS` (one seeded trial at
N = 200-300, run at each of the row's seeds) or a suite of :data:`SUITES`
(the suite's ``run_suite`` at the :data:`BENCH` profile, whose cells derive
their own seeds).  ``tests/integration/test_paper_claims.py`` runs every
distinct run once and judges every row; EXPERIMENTS.md's verdict summary
is :func:`verdict_table` of these rows.

The predicates are shapes, not fits: orderings, ratios and bands whose
thresholds were set once and are not tuned.  A row the reproduction does
not meet on every seed carries a caveat and the seeds it fails on; its
test is a strict xfail, so it fails the build if the caveat goes stale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import repro.experiments.ablations
import repro.experiments.cache_size
import repro.experiments.capacity
import repro.experiments.fairness
import repro.experiments.flexible_extent
import repro.experiments.ping_interval
import repro.experiments.policy_comparison
from repro.core.params import BadPongBehavior, ProtocolParams, SystemParams
from repro.experiments.executor import TrialSpec, execute_trial
from repro.experiments.profiles import Profile

#: The scale the suite-level rows run at: every qualitative shape is
#: visible, and the whole set runs in about a minute on two cores.
BENCH = Profile(
    name="bench",
    duration=300.0,
    warmup=100.0,
    trials=1,
    network_sizes=(100, 200),
    reference_size=200,
    cache_sizes=(5, 10, 20, 50, 100),
    ping_intervals=(10.0, 60.0, 240.0, 480.0),
    baseline_queries=400,
    max_extent=200,
)


def _ablations(profile: Profile) -> list:
    """Four of the seven ablations.  The other three's claims are held at
    least as tightly elsewhere in tier-1: detection's by
    ``tests/extensions/test_detection.py``, adaptive search's rows by the
    literals in ``tests/extensions/test_one_probe_loop.py``, and parallel
    probing's by the ``parallel_*`` rows below."""
    ablations = repro.experiments.ablations
    return [
        ablations.run_backoff_ablation(profile),
        ablations.run_selfish_ablation(profile),
        ablations.run_pong_size_ablation(profile),
        ablations.run_intro_prob_ablation(profile),
    ]


#: Suite name -> its runner; a row reading one gets its results by
#: experiment id.  Slowest first, so a pool of two finishes together.
SUITES: Dict[str, Callable[[Profile], list]] = {
    "policy_comparison": repro.experiments.policy_comparison.run_suite,
    "ablations": _ablations,
    "cache_size": repro.experiments.cache_size.run_suite,
    "ping_interval": repro.experiments.ping_interval.run_suite,
    "capacity": repro.experiments.capacity.run_suite,
    "fairness": repro.experiments.fairness.run_suite,
    "flexible_extent": repro.experiments.flexible_extent.run_suite,
}


def _spec(system, protocol, *, duration=800.0, warmup=200.0) -> TrialSpec:
    """One trial that runs ``duration`` simulated seconds in all, measuring
    after ``warmup``; its seed is set per row."""
    return TrialSpec(system, protocol, duration - warmup, warmup, seed=0)


def _attack(policy: str, behavior: BadPongBehavior, bad: float) -> TrialSpec:
    """§6.4 at N = 300 with CacheSize 30, so that 20 % attackers (60 peers)
    can fully displace a cache.  A clean network has no attacker to behave
    either way: it is one config under both behaviours."""
    return _spec(
        SystemParams(
            network_size=300,
            percent_bad_peers=bad,
            bad_pong_behavior=behavior if bad else BadPongBehavior.DEAD,
        ),
        ProtocolParams.all_same_policy(policy, cache_size=30),
    )


_N300 = SystemParams(network_size=300)
_N200 = SystemParams(network_size=200)
#: Table 3 / Figures 3-5 stress maintenance with short lifetimes.
_CHURN = SystemParams(network_size=300, lifespan_multiplier=0.2)
#: Figure 11's MRU pathology needs entries to die within a cache's life.
_SHORT_LIVED = SystemParams(network_size=300, lifespan_multiplier=0.3)
_DEAD, _BAD = BadPongBehavior.DEAD, BadPongBehavior.BAD

#: Every single-trial config a row reads, by name.
CONFIGS: Dict[str, TrialSpec] = {
    "baseline": _spec(_N300, ProtocolParams()),
    "mfs_pong": _spec(_N300, ProtocolParams(query_pong="MFS")),
    "mfs_stack": _spec(_N300, ProtocolParams.all_same_policy("MFS")),
    "lfs_replacement": _spec(_N300, ProtocolParams(cache_replacement="LFS")),
    "mru_eviction": _spec(_SHORT_LIVED, ProtocolParams(cache_replacement="MRU")),
    "lru_eviction": _spec(_SHORT_LIVED, ProtocolParams(cache_replacement="LRU")),
    **{
        f"cache{size}": _spec(
            _CHURN, ProtocolParams(cache_size=size), duration=700.0, warmup=300.0
        )
        for size in (5, 20, 200)
    },
    "n200": _spec(_N200, ProtocolParams()),
    "n200_mfs_lfs": _spec(
        _N200,
        ProtocolParams(query_probe="MFS", query_pong="MFS", cache_replacement="LFS"),
    ),
    "n200_parallel5": _spec(_N200, ProtocolParams(parallel_probes=5)),
    "mr_roomy": _spec(
        SystemParams(network_size=300, max_probes_per_second=50),
        ProtocolParams.all_same_policy("MR"),
    ),
    "mr_tight": _spec(
        SystemParams(network_size=300, max_probes_per_second=1),
        ProtocolParams.all_same_policy("MR"),
    ),
    "mfs_clean": _attack("MFS", _DEAD, 0.0),
    "mfs_dead": _attack("MFS", _DEAD, 20.0),
    "mfs_bad": _attack("MFS", _BAD, 20.0),
    "mr_clean": _attack("MR", _DEAD, 0.0),
    "mr_dead": _attack("MR", _DEAD, 20.0),
    "mr_bad": _attack("MR", _BAD, 20.0),
    "mr_star_clean": _attack("MR*", _BAD, 0.0),
    "mr_star_bad": _attack("MR*", _BAD, 20.0),
    "random_clean": _attack("Random", _DEAD, 0.0),
    "random_dead": _attack("Random", _DEAD, 20.0),
    "random_bad": _attack("Random", _BAD, 20.0),
}

#: The seed a config row runs at: the one every row used when each claim
#: was its own test.  Rows on the cheaper configs also run a second seed,
#: as many as fit in the time the one-seed tests took.
SEEDS = (11,)
TWO_SEEDS = (11, 12)
#: The parallel-probing rows' seeds, likewise.
PARALLEL_SEEDS = (3, 4)
#: A suite row's one sample: the suite derives its cells' seeds itself.
SUITE_SEED = (None,)


def _run_key(name: str, seed: Optional[int]) -> Any:
    """A suite runs once, under its name; a config once per seed."""
    return name if name in SUITES else (name, seed)


@dataclass(frozen=True)
class Claim:
    """One verdict claim and the predicate that enforces it.

    Attributes:
        artifact: the paper's table or figure (``"Fig 4"``).
        name: the row's test id.
        text: the claim, in a line.
        reads: the configs or suites the predicate takes, by name.
        check: the predicate; it gets each of ``reads`` as a keyword (a
            config's report at one seed, or a suite's results by id).
        seeds: the config seeds it is judged at (a suite row ignores it).
        paper: the paper's own number, where it states one.
        caveat: why the claim does not hold here; empty when it does.
        fails_on: the seeds it fails on, exactly (a caveat row's xfail).
    """

    artifact: str
    name: str
    text: str
    reads: Tuple[str, ...]
    check: Callable[..., bool]
    seeds: Tuple[int, ...] = SEEDS
    paper: str = ""
    caveat: str = ""
    fails_on: Tuple[Optional[int], ...] = ()

    @property
    def samples(self) -> Tuple[Optional[int], ...]:
        """The seeds it is judged at; a suite row is judged once."""
        return SUITE_SEED if set(self.reads) <= set(SUITES) else self.seeds

    def runs(self) -> List[Any]:
        """The run keys it reads: a suite name, or ``(config, seed)``."""
        return [_run_key(name, seed) for seed in self.samples for name in self.reads]

    def failing_seeds(self, produced: Mapping[Any, Any]) -> Tuple[Optional[int], ...]:
        """The seeds whose runs the predicate rejects, in seed order."""
        return tuple(
            seed
            for seed in self.samples
            if not self.check(**{
                name: produced[_run_key(name, seed)] for name in self.reads
            })
        )


def produce(key: Any) -> Any:
    """One run (module-level, so a worker process can take it)."""
    if isinstance(key, str):
        return {result.experiment_id: result for result in SUITES[key](BENCH)}
    name, seed = key
    return execute_trial(replace(CONFIGS[name], seed=seed))


def all_runs(claims: Sequence[Claim]) -> List[Any]:
    """Every distinct run the rows read: the suites in :data:`SUITES` order
    (they take longest), then the configs."""
    keys = dict.fromkeys(key for claim in claims for key in claim.runs())
    suites = [name for name in SUITES if name in keys]
    return suites + [key for key in keys if key not in SUITES]


def _ys(points) -> List[float]:
    return [y for _, y in points]


def _rows(result) -> Dict[Any, tuple]:
    return {row[0]: row for row in result.rows}


def _fig4(cache_size) -> bool:
    # The extremes are not the minimum: a moderate cache beats the tiniest.
    return all(
        min(_ys(points)) < _ys(points)[0]
        for points in cache_size["fig4"].series.values()
    )


def _fig5(cache_size) -> bool:
    # Dead probes rise with cache size; good probes do NOT keep rising
    # proportionally (they peak at a moderate size).
    series = cache_size["fig5"].series
    dead, good = _ys(series["Dead"]), _ys(series["Good"])
    return dead[-1] > dead[0] and (
        max(good) < 3 * max(1e-9, good[0]) or max(good) != good[-1]
    )


def _fig6(ping_interval) -> bool:
    # Tighter maintenance keeps the overlay at least as connected.
    lccs = [dict(points) for points in ping_interval["fig6"].series.values()]
    return bool(lccs) and all(lcc[min(lcc)] >= lcc[max(lcc)] for lcc in lccs)


def _fig7(ping_interval) -> bool:
    # At the tightest interval relative LCC is high for every size.
    series = ping_interval["fig7"].series
    tight = min(BENCH.ping_intervals)
    return len(series) == len(BENCH.network_sizes) and all(
        dict(points)[tight] > 0.9 for points in series.values()
    )


def _fig8(flexible_extent) -> bool:
    # The cheapest fixed extent that matches GUESS+MFS's quality costs
    # several times its probes.
    series = flexible_extent["fig8"].series
    guess_cost, guess_unsat = series["GUESS QueryPong=MFS"][0]
    matching = [
        cost
        for cost, unsat in series["FixedExtent(Gnutella)"]
        if unsat <= guess_unsat + 0.02
    ]
    return bool(matching) and min(matching) > 2.0 * guess_cost


def _fig9(policy_comparison) -> bool:
    # MRU (freshest first) wastes fewer probes on corpses than LRU.
    rows = _rows(policy_comparison["fig9"])
    return set(rows) == {"Random", "MRU", "LRU", "MFS", "MR"} and (
        rows["MRU"][2] <= rows["LRU"][2]
    )


def _fig11(policy_comparison) -> bool:
    # LFS (retain big sharers) is the cheapest policy.
    rows = _rows(policy_comparison["fig11"])
    return set(rows) == {"Random", "LRU", "MRU", "LFS", "LR"} and (
        rows["LFS"][3] == min(row[3] for row in rows.values())
    )


def _fig13(fairness) -> bool:
    # Columns: total probes, top-1% share, Gini.
    stats = _rows(fairness["fig13"])
    mfs, flat = stats["MFS/LFS"], stats["Random/Random"]
    return mfs[2] > flat[2] and mfs[3] > flat[3] and flat[1] > 2 * mfs[1]


def _fig14(capacity) -> bool:
    rows = capacity["fig14"].rows
    refused = {(n, cap): value for n, cap, _, value, _ in rows}
    largest = max(n for n, _ in refused)
    return refused[(largest, 1)] >= refused[(largest, 50)]


def _attacked(clean, attacked, *, gain: float) -> bool:
    return attacked.unsatisfied_rate > clean.unsatisfied_rate + gain


def _robust(clean, attacked) -> bool:
    return attacked.unsatisfied_rate < clean.unsatisfied_rate + 0.10


def _collapsed(clean, attacked) -> bool:
    return _attacked(clean, attacked, gain=0.35) and (
        attacked.mean_good_entries < clean.mean_good_entries / 3.0
    )


def _ablation(results, experiment_id: str) -> Dict[Any, list]:
    return {key: row for key, *row in results[experiment_id].rows}


def _backoff_ablation(ablations) -> bool:
    rows = _ablation(ablations, "ablation-backoff")
    return rows[False][2] < 0.6 and rows[True][2] < 0.6


def _selfish_ablation(ablations) -> bool:
    rows = _ablation(ablations, "ablation-selfish")
    free, paying = rows["20% selfish, free probes"], rows["20% selfish, paying"]
    return free[2] > 2.0 * paying[2] and all(row[0] < 0.6 for row in rows.values())


def _pong_size_ablation(ablations) -> bool:
    rows = _ablation(ablations, "ablation-pongsize")
    return rows[0][1] > rows[5][1] + 0.1 and abs(rows[10][1] - rows[5][1]) < 0.12


def _intro_prob_ablation(ablations) -> bool:
    rows = _ablation(ablations, "ablation-introprob")
    return rows[0.5][2] >= rows[0.0][2] and all(row[1] < 0.6 for row in rows.values())


CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "Table 3", "table3_fraction_live_falls",
        "fraction of live entries falls as CacheSize grows",
        ("cache_size",),
        lambda cache_size: (
            cache_size["table3"].rows[0][1] > cache_size["table3"].rows[-1][1]
        ),
    ),
    Claim(
        "Table 3", "fraction_live_falls_with_cache_size",
        "fraction live at CacheSize 20 > at 200 (N = 300)",
        ("cache20", "cache200"),
        lambda cache20, cache200: (
            cache20.mean_fraction_live > cache200.mean_fraction_live
        ),
        seeds=TWO_SEEDS,
    ),
    Claim(
        "Fig 3", "fig3_probes_grow_with_cache_size",
        "probes/query grows with CacheSize at every NetworkSize",
        ("cache_size",),
        lambda cache_size: all(
            _ys(points)[-1] > _ys(points)[0]
            for points in cache_size["fig3"].series.values()
        ),
    ),
    Claim(
        "Fig 3", "probes_grow_with_cache_size",
        "probes/query at CacheSize 5 < 20 < 200 (N = 300)",
        ("cache5", "cache20", "cache200"),
        lambda cache5, cache20, cache200: (
            cache5.probes_per_query
            < cache20.probes_per_query
            < cache200.probes_per_query
        ),
        seeds=TWO_SEEDS,
    ),
    Claim(
        "Fig 4", "fig4_unsat_minimum_at_moderate_cache",
        "unsatisfaction is lowest at a moderate CacheSize, not the tiniest",
        ("cache_size",),
        _fig4,
        caveat=(
            "the N=100 series is lowest at CacheSize 5 (0.231 vs 0.277-0.309);"
            " N=200 has its interior minimum"
        ),
        fails_on=SUITE_SEED,
    ),
    Claim(
        "Fig 4", "tiny_cache_hurts_satisfaction",
        "unsatisfaction at CacheSize 5 > at 20 (N = 300)",
        ("cache5", "cache20"),
        lambda cache5, cache20: cache5.unsatisfied_rate > cache20.unsatisfied_rate,
        seeds=TWO_SEEDS,
    ),
    Claim(
        "Fig 5", "fig5_dead_probes_grow_good_probes_plateau",
        "dead probes grow with CacheSize; good probes plateau",
        ("cache_size",),
        _fig5,
    ),
    Claim(
        "Fig 5", "dead_probes_grow_with_cache_size",
        "dead probes/query at CacheSize 200 > at 20 (N = 300)",
        ("cache20", "cache200"),
        lambda cache20, cache200: (
            cache200.dead_probes_per_query > cache20.dead_probes_per_query
        ),
        seeds=TWO_SEEDS,
    ),
    Claim(
        "Fig 6", "fig6_long_intervals_fragment_overlay",
        "the overlay is at least as connected at the tightest PingInterval"
        " as at the loosest, for every CacheSize",
        ("ping_interval",),
        _fig6,
    ),
    Claim(
        "Fig 7", "fig7_relative_connectivity_scale_free",
        "at the tightest PingInterval relative LCC > 0.9 at every NetworkSize",
        ("ping_interval",),
        _fig7,
    ),
    Claim(
        "Fig 8", "fig8_guess_dominates_fixed_extent",
        "a fixed extent matching GUESS+MFS's unsatisfaction costs > 2x its"
        " probes",
        ("flexible_extent",),
        _fig8,
        paper="> 10x",
    ),
    Claim(
        "Fig 9", "fig9_mru_fewest_dead_probes",
        "QueryProbe=MRU (freshest first) probes no more corpses than LRU",
        ("policy_comparison",),
        _fig9,
    ),
    Claim(
        "Fig 10", "fig10_mfs_pongs_cut_cost",
        "QueryPong=MFS costs < Random / 1.5",
        ("policy_comparison",),
        lambda policy_comparison: (
            _rows(policy_comparison["fig10"])["MFS"][3]
            < _rows(policy_comparison["fig10"])["Random"][3] / 1.5
        ),
        paper="~4x",
    ),
    Claim(
        "Fig 10", "mfs_query_pong_cuts_cost_severalfold",
        "QueryPong=MFS costs < Random / 2 (N = 300)",
        ("baseline", "mfs_pong"),
        lambda baseline, mfs_pong: (
            mfs_pong.probes_per_query < baseline.probes_per_query / 2.0
        ),
        paper="~4x",
    ),
    Claim(
        "Figs 10-11", "mfs_lfs_stack_close_to_order_of_magnitude",
        "all-MFS/LFS policies cost < Random / 4 (N = 300)",
        ("baseline", "mfs_stack"),
        lambda baseline, mfs_stack: (
            mfs_stack.probes_per_query < baseline.probes_per_query / 4.0
        ),
    ),
    Claim(
        "Fig 11", "fig11_lfs_is_cheapest",
        "CacheReplacement=LFS is the cheapest of the five policies",
        ("policy_comparison",),
        _fig11,
        paper="> 5x",
    ),
    Claim(
        "Fig 11", "lfs_replacement_beats_random",
        "CacheReplacement=LFS costs less than Random (N = 300)",
        ("baseline", "lfs_replacement"),
        lambda baseline, lfs_replacement: (
            lfs_replacement.probes_per_query < baseline.probes_per_query
        ),
    ),
    Claim(
        "Fig 11", "mru_eviction_wastes_probes",
        "MRU eviction wastes more dead probes than LRU (N = 300)",
        ("mru_eviction", "lru_eviction"),
        lambda mru_eviction, lru_eviction: (
            mru_eviction.dead_probes_per_query > lru_eviction.dead_probes_per_query
        ),
    ),
    Claim(
        "Fig 12", "fig12_unsat_band",
        "every QueryPong policy's unsatisfaction lies in [0, 0.6]",
        ("policy_comparison",),
        lambda policy_comparison: all(
            0.0 <= rate <= 0.6 for _, rate in policy_comparison["fig12"].rows
        ),
    ),
    Claim(
        "Fig 12", "unsatisfaction_floor_band",
        "Random's unsatisfaction lies in [0.03, 0.20] (N = 300)",
        ("baseline",),
        lambda baseline: 0.03 <= baseline.unsatisfied_rate <= 0.20,
        paper="6-14 %",
    ),
    Claim(
        "Fig 13", "fig13_load_concentration",
        "MFS/LFS has a higher top-1% share and Gini than Random/Random,"
        " which fires > 2x its probes",
        ("fairness",),
        _fig13,
        paper="8x",
    ),
    Claim(
        "Fig 13", "mfs_concentrates_load_random_spreads_it",
        "MFS/LFS's top-5% load share > 2x Random's, and its Gini higher"
        " (N = 200)",
        ("n200_mfs_lfs", "n200"),
        lambda n200_mfs_lfs, n200: (
            n200_mfs_lfs.load_distribution().top_share(0.05)
            > 2.0 * n200.load_distribution().top_share(0.05)
            and n200_mfs_lfs.load_distribution().gini()
            > n200.load_distribution().gini()
        ),
        seeds=TWO_SEEDS,
    ),
    Claim(
        "Fig 13", "random_total_probes_several_times_mfs",
        "Random fires > 3x the probes of MFS/LFS (N = 200)",
        ("n200_mfs_lfs", "n200"),
        lambda n200_mfs_lfs, n200: n200.total_probes > 3 * n200_mfs_lfs.total_probes,
        paper="8x",
        seeds=TWO_SEEDS,
    ),
    Claim(
        "Fig 14", "fig14_tight_capacity_refuses_probes",
        "at the largest N, capacity 1 refuses at least as many probes as 50",
        ("capacity",),
        _fig14,
    ),
    Claim(
        "Figs 14-15", "tight_capacity_causes_refusals_but_not_unsatisfaction",
        "capacity 1 refuses > 0.05 probes/query and more than capacity 50,"
        " and costs <= 0.15 unsatisfaction (MR, N = 300)",
        ("mr_roomy", "mr_tight"),
        lambda mr_roomy, mr_tight: (
            mr_tight.refused_probes_per_query > mr_roomy.refused_probes_per_query
            and mr_tight.refused_probes_per_query > 0.05
            and mr_tight.unsatisfied_rate <= mr_roomy.unsatisfied_rate + 0.15
        ),
    ),
    Claim(
        "Fig 15", "fig15_satisfaction_resilient_to_capacity",
        "unsatisfaction spreads < 0.25 across capacities at every N",
        ("capacity",),
        lambda capacity: all(
            max(_ys(points)) - min(_ys(points)) < 0.25
            for points in capacity["fig15"].series.values()
        ),
    ),
    Claim(
        "Figs 16-18", "mfs_collapses_under_dead_poisoning",
        "20 % dead-pong attackers add > 0.35 to MFS's unsatisfaction and"
        " cut its good entries > 3x",
        ("mfs_clean", "mfs_dead"),
        lambda mfs_clean, mfs_dead: _collapsed(mfs_clean, mfs_dead),
    ),
    Claim(
        "Figs 16-18", "mr_robust_without_collusion",
        "20 % dead-pong attackers add < 0.10 to MR's unsatisfaction",
        ("mr_clean", "mr_dead"),
        lambda mr_clean, mr_dead: _robust(mr_clean, mr_dead),
    ),
    Claim(
        "Figs 16-21", "random_robust_under_both_attacks",
        "20 % attackers, dead or colluding, add < 0.10 to Random's"
        " unsatisfaction",
        ("random_clean", "random_dead", "random_bad"),
        lambda random_clean, random_dead, random_bad: (
            _robust(random_clean, random_dead) and _robust(random_clean, random_bad)
        ),
    ),
    Claim(
        "Figs 19-21", "mfs_collapses_under_collusion",
        "20 % colluding attackers add > 0.25 to MFS's unsatisfaction",
        ("mfs_clean", "mfs_bad"),
        lambda mfs_clean, mfs_bad: _attacked(mfs_clean, mfs_bad, gain=0.25),
    ),
    Claim(
        "Figs 19-21", "mr_collapses_under_collusion",
        "20 % colluding attackers add > 0.35 to MR's unsatisfaction and cut"
        " its good entries > 3x",
        ("mr_clean", "mr_bad"),
        lambda mr_clean, mr_bad: _collapsed(mr_clean, mr_bad),
    ),
    Claim(
        "Figs 19-21", "mr_star_robust_under_collusion",
        "20 % colluding attackers add < 0.10 to MR*'s unsatisfaction",
        ("mr_star_clean", "mr_star_bad"),
        lambda mr_star_clean, mr_star_bad: _robust(mr_star_clean, mr_star_bad),
    ),
    Claim(
        "Figs 19-21", "mr_star_more_efficient_than_random_under_collusion",
        "under 20 % colluding attackers MR* costs fewer probes than Random",
        ("mr_star_bad", "random_bad"),
        lambda mr_star_bad, random_bad: (
            mr_star_bad.probes_per_query < random_bad.probes_per_query
        ),
    ),
    Claim(
        "§6.2", "parallel_overhead_bounded",
        "k = 5 walkers cost at most k extra probes/query (N = 200)",
        ("n200", "n200_parallel5"),
        lambda n200, n200_parallel5: (
            n200_parallel5.probes_per_query <= n200.probes_per_query + 5
        ),
        seeds=PARALLEL_SEEDS,
    ),
    Claim(
        "§6.2", "parallel_response_time_improves",
        "k = 5 walkers more than halve the mean response time (N = 200)",
        ("n200", "n200_parallel5"),
        lambda n200, n200_parallel5: (
            n200_parallel5.mean_response_time < n200.mean_response_time / 2.0
        ),
        seeds=PARALLEL_SEEDS,
    ),
    *(
        Claim(artifact, name, text, ("ablations",), check)
        for artifact, name, text, check in (
            (
                "Table 2 ablation", "ablation_backoff_keeps_network_functional",
                "with or without DoBackoff, unsatisfaction < 0.6",
                _backoff_ablation,
            ),
            (
                "§3.3 ablation", "ablation_selfish_payments_tradeoff",
                "free-probing cheats fire > 2x the probes of paying ones;"
                " honest unsatisfaction < 0.6",
                _selfish_ablation,
            ),
            (
                "Table 2 ablation", "ablation_pong_size_sharing_matters",
                "PongSize 0 adds > 0.1 unsatisfaction over 5; 10 is within"
                " 0.12 of 5",
                _pong_size_ablation,
            ),
            (
                "Table 2 ablation", "ablation_intro_prob_populates_caches",
                "IntroProb 0.5 fills caches at least as well as 0; every"
                " unsatisfaction < 0.6",
                _intro_prob_ablation,
            ),
        )
    ),
)


def verdict_table(claims: Sequence[Claim] = CLAIMS) -> str:
    """EXPERIMENTS.md's verdict summary: one markdown row per claim."""
    lines = [
        "| Artifact | Claim | Paper | Verdict | Enforced by | Seeds |",
        "|---|---|---|---|---|---|",
    ]
    for claim in claims:
        if claim.samples == SUITE_SEED:
            seeds = "1 (suite at `BENCH`)"
        else:
            seeds = f"{len(claim.seeds)} ({', '.join(map(str, claim.seeds))})"
        verdict = f"✗ {claim.caveat}" if claim.caveat else "✓"
        lines.append(
            f"| {claim.artifact} | {claim.text} | {claim.paper or '—'} "
            f"| {verdict} | `test_claim[{claim.name}]` | {seeds} |"
        )
    return "\n".join(lines)
