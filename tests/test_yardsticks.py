"""Shrink-only ceilings on the size yardsticks ROADMAP aim 2 names.

Like ``effect_baseline.toml``, these only ever move one way: a PR that
gets under a ceiling lowers it to the new count; a PR that would exceed
one takes the code somewhere it belongs instead of raising the number.
"""

from __future__ import annotations

import ast
import gc
import importlib.util
import inspect
import random
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

from repro.baselines.gossip import GossipRelay
from repro.core.entry import CacheEntry, EntryView
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.core.policies import Policy
from repro.core.query_cache import QueryCache
from tests.integration import test_determinism as pins

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def line_count(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def test_src_size():
    # Ceiling may only be lowered: 20 752 lines before the execution
    # census (EXPERIMENTS.md) deleted what no workload, suite or CLI ran,
    # 19 688 before the metrics registry went, 19 171 before query spans,
    # 18 778 before the link cache kept the keyed orders, 18 776 before a
    # probe's outcome was applied and booked in one place, 18 684 before a
    # pong was taken in one pass, 18 663 before a pending rumor held values,
    # 18 662 before the peer store became the one live roster, 18 500
    # before a policy was a row of one table, 18 337 before the unused
    # adaptive-ping controller and figure wrappers went, 18 197 before the
    # fault models, backoff knobs and crash injection only tests set went.
    assert sum(line_count(path) for path in SRC.rglob("*.py")) <= 17744


def test_faults_size():
    # Ceiling may only be lowered: 630 lines with burst loss, jitter,
    # brownouts, partitions and exponential backoff, which only tests set.
    assert sum(line_count(path) for path in (SRC / "faults").glob("*.py")) <= 292


def test_network_sim_runs_the_lifecycle_only():
    # Ceiling may only be lowered; the target is < 600 (ROADMAP
    # 'Finish the seam, then shrink what sits on it').
    assert line_count(SRC / "core" / "network_sim.py") <= 752


def test_collectors_size():
    # Ceiling may only be lowered; the target is < 500 (ROADMAP
    # 'Finish the seam, then shrink what sits on it').
    assert line_count(SRC / "metrics" / "collectors.py") <= 627


def test_a_count_is_an_int():
    # A count is an ``int`` attribute on the transport or a field of the
    # collector's tally, read once at the end of a run.  A registry of
    # named instruments beside them, and the plan knobs and constructor
    # parameters that attached one, are what this forbids.
    from repro.core.search import execute_query
    from repro.metrics.collectors import MetricsCollector
    from repro.network.transport import Transport

    found = [
        f"{path.relative_to(SRC)}: {word}"
        for path in sorted(SRC.rglob("*.py"))
        for word in ("MetricsRegistry", ".inc(", "_observed", "Observation(")
        if word in path.read_text(encoding="utf-8")
    ]
    assert not found, found
    # A query is recorded once, as its ``QueryResult``: no span recorder
    # or plan to attach one, and no ``span=`` hook in the probe loop.
    for gone in ("repro.observe.plan", "repro.observe.spans"):
        assert importlib.util.find_spec(gone) is None, gone
    assert "span" not in inspect.signature(execute_query).parameters

    def parameters(init):
        return list(inspect.signature(init).parameters)[1:]

    assert parameters(Transport.__init__) == ["timeout", "faults"]
    assert parameters(MetricsCollector.__init__) == [
        "warmup",
        "keep_queries",
        "satisfaction_window",
    ]


def test_one_probe_loop_size():
    # Ceilings may only be lowered: a search variant is a width rule
    # ``execute_query`` asks, never a second copy of its loop.
    search = line_count(SRC / "core" / "search.py")
    assert search <= 293
    extensions = sorted((SRC / "extensions").glob("*.py"))
    assert sum(line_count(path) for path in extensions) <= 599
    # §2.3 is one structure: the loop plus the cache it pops from.
    assert search + line_count(SRC / "core" / "query_cache.py") <= 409


def test_a_probe_is_booked_once():
    # A ping and a query probe share one outcome rule and one tally
    # (``GuessPeer.probe_entry``): a second copy of the retry branch, or of
    # the evict / breaker / stale-split block, is what this forbids.
    from repro.core.peer import ProbeTally
    from repro.core.search import QueryResult
    from repro.metrics.collectors import MetricsCollector, SimulationReport, _Tally

    callers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "probe_with_retry(" in line and "def probe_with_retry(" not in line
    ]
    assert callers == ["core/peer.py"], callers
    for relative in ("core/network_sim.py", "core/search.py"):
        source = (SRC / relative).read_text(encoding="utf-8")
        for gone in ("breakers.discard", "record_refusal", "record_success"):
            assert gone not in source, (relative, gone)
    parameters = list(inspect.signature(MetricsCollector.record_ping).parameters)
    assert parameters == ["self", "tally", "time"]
    assert not hasattr(MetricsCollector, "record_suppressed_ping")
    # The per-probe counts are the query's; the collector's tally is the
    # report's ``int`` fields, not a hand-written list of its own.
    counts = {f.name for f in fields(QueryResult) if f.type == "int"} - {"results"}
    assert set(ProbeTally.__slots__) == counts
    collectors = (SRC / "metrics" / "collectors.py").read_text(encoding="utf-8")
    assert "class _Tally" not in collectors
    assert [f.name for f in fields(_Tally)] == [
        f.name for f in fields(SimulationReport) if f.type == "int"
    ]


def test_the_query_cache_is_the_candidate_pool():
    # One per-query structure: the seen-set, the admission rule and the
    # best-first pop.  A second one beside it (a pool class, or a dict of
    # admitted entries nothing reads) is what this forbids; the alias
    # ``CandidatePool = QueryCache`` stays until a ``benchmark`` PR drops
    # the name from ``bench/trace.py``.
    from repro.core.query_cache import QueryCache

    assert not [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "class CandidatePool" in path.read_text(encoding="utf-8")
    ]
    assert "_entries" not in QueryCache.__slots__
    public = {name for name in vars(QueryCache) if not name.startswith("_")}
    assert public == {"add", "pop"}
    assert "__len__" in vars(QueryCache)


def test_protocol_is_assigned_at_construction_only():
    # Widening one query is ``execute_query(width=...)``; swapping a live
    # peer's ProtocolParams to get there is the pattern this forbids.
    sites = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if re.search(r"\.protocol\s*=[^=]", line)
    ]
    assert len(sites) == 2, sites
    assert {site.rsplit(":", 1)[0] for site in sites} == {
        "core/peer.py",
        "core/network_sim.py",
    }


def test_experiments_are_declarations():
    # Ceilings may only be lowered: a suite is constants, ``cells`` and
    # a metrics mapping on the one runner (ROADMAP 'Finish the seam,
    # then shrink what sits on it').
    experiments = SRC / "experiments"
    assert sum(line_count(p) for p in experiments.glob("*.py")) <= 4296
    grids = ("packet_loss", "churn_storm", "cache_freshness", "gossip_search")
    assert sum(line_count(experiments / f"{g}.py") for g in grids) <= 915


def test_a_trial_is_its_spec():
    # A hook that pokes at a built simulation makes a trial the manifest
    # records but cannot replay; an in-process ablation builds its own
    # simulations instead (ROADMAP 'Finish the seam, then shrink what
    # sits on it').
    offenders = [
        path.name
        for path in sorted((SRC / "experiments").glob("*.py"))
        if "mutate" in path.read_text(encoding="utf-8")
    ]
    assert not offenders, offenders


def test_suites_take_one_executor():
    # ``workers=`` and ``executor=`` were two spellings of one argument:
    # a suite is handed an executor, and only the CLIs build one.
    signatures = [
        signature
        for path in sorted(SRC.rglob("*.py"))
        for signature in re.findall(
            r"def run_suite\((.*?)\)", path.read_text(encoding="utf-8"), re.S
        )
    ]
    assert len(signatures) == 12
    assert not [s for s in signatures if "workers" in s]
    builders = {
        path.name
        for path in (SRC / "experiments").glob("*.py")
        if re.search(
            r"(?<!def )get_executor\(", path.read_text(encoding="utf-8")
        )
    }
    assert builders == {"runner.py", "run_all.py"}


def test_kernel_is_what_a_workload_executes():
    # Ceiling may only be lowered.  An event is a tuple on a heap and it
    # always fires; a layer that needs to revoke one checks when it fires
    # (DESIGN.md §10) before any of these words comes back.
    kernel = sorted((SRC / "sim").glob("*.py"))
    assert sum(line_count(path) for path in kernel) <= 563
    gone = ("cancel", "tombstone", "EventHandle", "TraceLog", "SlidingWindowCounter")
    found = [
        f"{path.name}: {word}"
        for path in kernel
        for word in gone
        if word in path.read_text(encoding="utf-8")
    ]
    assert not found, found


def test_bytes_per_peer():
    # Ceilings may only be lowered.  What a built peer keeps resident,
    # by the file that allocated it: libraries are charged to
    # ``workload/content.py`` (EXPERIMENTS.md "Kernel scaling" has the
    # table by owner; 3 990 and 1 610 B when these were set).
    n = 2000
    tracemalloc.start()
    try:
        sim = GuessSimulation(
            SystemParams(network_size=n, query_rate=0.0),
            ProtocolParams(cache_size=10),
            seed=7,
        )
        by_file = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    assert len(sim.store) == n
    per_peer = {stat.traceback[0].filename: stat.size / n for stat in by_file}
    largest = sorted(per_peer.items(), key=lambda item: -item[1])[:3]
    owners = ", ".join(f"{name}: {size:,.0f} B" for name, size in largest)
    assert sum(per_peer.values()) <= 4.5 * 1024, owners
    workload = sum(b for name, b in per_peer.items() if "/workload/" in name)
    assert workload <= 1.8 * 1024, owners


def _clone_counts(monkeypatch, system, protocol, **plans):
    """``(copies, admissions of shown entries, entries seed_rumor was shown)``
    over 60 sim-s.  A shown entry is admitted by the query cache, or by a
    link cache taking a pong or a friend's cache (``admit(shown=True)``)."""
    from repro.core.link_cache import LinkCache

    counts = {"copy": 0, "admitted": 0, "rumor": 0, "refused": 0}
    copy, add, admit = CacheEntry.copy, QueryCache.add, LinkCache.admit
    seed_rumor = GossipRelay.seed_rumor

    def counted_copy(entry, *args):
        counts["copy"] += 1
        return copy(entry, *args)

    def counted_add(cache, entries, reset_num_results, now):
        entries = list(entries)
        kept = add(cache, entries, reset_num_results, now)
        counts["admitted"] += len(kept)
        counts["refused"] += len(entries) - len(kept)
        return kept

    def counted_admit(cache, entries, *args, shown=False, **kwargs):
        entries = list(entries)
        kept = admit(cache, entries, *args, shown=shown, **kwargs)
        if shown:
            counts["admitted"] += kept
            counts["refused"] += len(entries) - kept
        return kept

    def counted_seed(relay, carrier, pong, now):
        counts["rumor"] += len(pong.entries)
        return seed_rumor(relay, carrier, pong, now)

    monkeypatch.setattr(CacheEntry, "copy", counted_copy)
    monkeypatch.setattr(QueryCache, "add", counted_add)
    monkeypatch.setattr(LinkCache, "admit", counted_admit)
    monkeypatch.setattr(GossipRelay, "seed_rumor", counted_seed)
    sim = GuessSimulation(system, protocol, seed=7, **plans)
    sim.run(60.0)
    assert sim.transport.probes_sent > 10_000
    # Shown entries are refused too (seen this query, or a lost contest):
    # none of those may cost a clone.
    assert counts["refused"] > 0
    return counts["copy"], counts["admitted"], counts["rumor"]


def test_an_entry_is_cloned_by_whoever_keeps_it(monkeypatch):
    # Exact, not a ceiling: a pong shows entries and only a keeper clones
    # (``core/entry.py``), once it has decided to keep the entry.
    # Table-1/2 defaults: every clone is an admission.  A sender-side
    # clone in ``make_pong`` is PongSize extra per pong; a clone made
    # before a lost contest is one extra per loss.
    copies, admitted, _ = _clone_counts(
        monkeypatch, SystemParams(network_size=300), ProtocolParams()
    )
    assert admitted > 0
    assert copies == admitted


def test_armed_gossip_adds_only_the_rumor_snapshot(monkeypatch):
    # The one holder of a pong past its event snapshots what it was shown
    # as values (``entry_values``), not clones: with every layer armed,
    # every clone is still an admission — a rumor's views included.
    recipe = pins.TestAllArmedPin
    copies, admitted, snapshotted = _clone_counts(
        monkeypatch, recipe.SYSTEM, recipe.PROTOCOL, **recipe.PLANS
    )
    assert admitted > 0 and snapshotted > 0
    assert copies == admitted


def _reached(root):
    """Every object reachable from ``root`` through tuples and sets."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            if isinstance(obj, (tuple, set, frozenset)):
                stack.extend(obj)
    return list(seen.values())


def test_a_pending_rumor_holds_values(monkeypatch):
    # A rumor waits in the queue for up to ~265 s (a query seeds it at its
    # forward-looking cursor), so what it holds is what every full pass of
    # the garbage collector walks.  Three tracked objects per rumor — the
    # event tuple, its args tuple and the ``seen`` set — beside one handler
    # per relay and a snapshot of numbers the collector stops tracking
    # after one pass.  Cloned entries would make it ten: five
    # ``CacheEntry`` objects, their tuple and a fresh bound method.
    recipe = pins.TestAllArmedPin
    sim = GuessSimulation(recipe.SYSTEM, recipe.PROTOCOL, seed=7, **recipe.PLANS)
    engine, hops = sim.engine, []
    schedule = engine.schedule

    def recorded(time, action, *, label="", **kwargs):
        if label in ("gossip", "freshness"):
            hops.append((time, action, label, kwargs["args"]))
        schedule(time, action, label=label, **kwargs)

    monkeypatch.setattr(engine, "schedule", recorded)
    pending = {"gossip": 0, "freshness": 0}
    # Checkpoints: three just after an overload notice is scheduled.
    for until in (11.65, 14.68, 26.65, 60.0, 100.0):
        sim.run(until - engine.now)
        gc.collect()
        handlers = {label: set() for label in pending}
        for time, action, label, args in hops:
            if time <= engine.now:
                continue  # fired
            pending[label] += 1
            handlers[label].add(id(action))  # all kept alive: distinct ids
            reached = _reached(args)
            assert not any(isinstance(o, (CacheEntry, EntryView)) for o in reached)
            seen = next(o for o in args if isinstance(o, set))
            assert [o for o in reached if gc.is_tracked(o)] == [args, seen], label
            if label == "gossip":
                values = args[2]
                assert {type(v) for v in values} <= {int, float}, values
                assert not gc.is_tracked(values)
        # One bound handler per relay, stored once: no bound method per event.
        assert all(len(ids) <= 1 for ids in handlers.values()), handlers
    assert pending["gossip"] > 1_000 and pending["freshness"] > 0, pending


def _rank_calls(monkeypatch, **policies):
    """``(Policy.rank calls, those the query caches made, entries they
    were seeded with or admitted)`` over 60 sim-s."""
    counts = {"rank": 0, "heap": 0, "pooled": 0}
    rank, init, add = Policy.rank, QueryCache.__init__, QueryCache.add

    def counted_rank(policy, entry):
        counts["rank"] += 1
        return rank(policy, entry)

    def counted_init(cache, owner, policy, rng, link_entries):
        before = counts["rank"]
        init(cache, owner, policy, rng, link_entries)
        counts["heap"] += counts["rank"] - before
        counts["pooled"] += len(link_entries)

    def counted_add(cache, entries, reset_num_results, now):
        before = counts["rank"]
        kept = add(cache, entries, reset_num_results, now)
        counts["heap"] += counts["rank"] - before
        counts["pooled"] += len(kept)
        return kept

    monkeypatch.setattr(Policy, "rank", counted_rank)
    monkeypatch.setattr(QueryCache, "__init__", counted_init)
    monkeypatch.setattr(QueryCache, "add", counted_add)
    protocol = ProtocolParams(
        query_pong="MFS", cache_replacement="LRU", **policies
    )
    sim = GuessSimulation(SystemParams(network_size=300), protocol, seed=7)
    sim.run(60.0)
    assert sim.transport.probes_sent > 5_000
    return counts["rank"], counts["heap"], counts["pooled"]


def test_ranking_calls_back_into_python_once_per_heap_push(monkeypatch):
    # Exact, not a ceiling: ``Policy.rank`` is called once per entry a
    # query cache's heap takes and once per entry a link cache's ranking
    # places, re-places or drops.  A key-based pong or eviction contest
    # reads the kept ranking and calls none; a call per entry per pong
    # would be ~100 per probe, millions over this run.  The counts are
    # ``Policy.key`` + ``Ranking.rank`` calls before the two were one rule.
    assert _rank_calls(monkeypatch) == (24_910, 0, 14_421)
    # A key-based QueryProbe adds one call per heap push.
    assert _rank_calls(monkeypatch, query_probe="MFS") == (27_986, 10_381, 10_381)


def test_policies_are_declarations():
    policies = SRC / "core" / "policies.py"
    # The tuple-key spelling lives in tests/property only.
    assert "lambda" not in policies.read_text(encoding="utf-8")
    # Ceiling may only be lowered: 504 lines (with ``policy_impls.py``)
    # before the link cache kept the keyed orders, 386 before the caches
    # made Random's draws, 313 before a policy was a row of one table.
    assert not (SRC / "core" / "policy_impls.py").exists()
    assert line_count(policies) <= 178
    # A policy is a row of the table, holding one method: its order.
    assert not Policy.__subclasses__()
    assert [
        name for name, value in vars(Policy).items()
        if inspect.isfunction(value) and not name.startswith("__")
    ] == ["rank"]


def test_a_keyed_run_never_ranks_a_whole_cache(monkeypatch):
    # Exact, not a ceiling: a key-based pong, ping target or eviction
    # contest reads the order its link cache keeps (``core/link_cache.py``)
    # — a slice, the first entry, one comparison with the last.  The
    # whole-cache reads left are the snapshots a query seeds its query
    # cache with and a newborn copies from its friend; a pong or contest
    # that ranked the residents again would read them per operation.  Each
    # cache sorts its residents once per ranking, the first time a
    # key-based role asks for it, one ``Policy.rank`` call per resident.
    from repro.core.link_cache import LinkCache, Ranking

    counts = {"snapshots": 0, "queries": 0, "caches": 0, "births": 0, "ranks": 0}
    built = []
    entries, init = LinkCache.entries, Ranking.__init__
    cache_init, rank = LinkCache.__init__, Policy.rank

    def counted_rank(policy, entry):
        counts["ranks"] += 1
        return rank(policy, entry)

    def counted_cache(cache, capacity, owner):
        counts["caches"] += 1
        cache_init(cache, capacity, owner)

    def counted_entries(cache):
        counts["snapshots"] += 1
        return entries(cache)

    def counted_init(cache, owner, policy, rng, link_entries):
        counts["queries"] += 1
        QueryCache_init(cache, owner, policy, rng, link_entries)

    def counted_build(ranking, policy, residents):
        built.append((policy.field, policy.prefers_low))
        init(ranking, policy, residents)

    def counted_seed(sim, newborn, friend, now):
        counts["births"] += 1
        seed(sim, newborn, friend, now)

    QueryCache_init = QueryCache.__init__
    seed = GuessSimulation._seed_from_friend
    monkeypatch.setattr(GuessSimulation, "_seed_from_friend", counted_seed)
    monkeypatch.setattr(LinkCache, "__init__", counted_cache)
    monkeypatch.setattr(LinkCache, "entries", counted_entries)
    monkeypatch.setattr(QueryCache, "__init__", counted_init)
    monkeypatch.setattr(Ranking, "__init__", counted_build)
    monkeypatch.setattr(Policy, "rank", counted_rank)
    recipe = pins.TestKeyedPin
    sim = GuessSimulation(recipe.SYSTEM, recipe.PROTOCOL, seed=7)
    sim.run(200.0)
    assert sim.transport.probes_sent > 2_000 and counts["queries"] > 100
    assert counts["births"] > 0
    assert counts["snapshots"] == counts["queries"] + counts["births"]
    # One ranking per distinct (field, direction) the four roles read.
    assert set(built) == {("num_files", False), ("ts", False),
                          ("ts", True), ("num_res", False)}
    assert len(built) <= 4 * counts["caches"]
    # ``Policy.key`` + ``Ranking.rank`` calls before the two were one rule.
    assert counts["ranks"] == 32_059


def test_random_draws_are_one_frame():
    # An index draw is ``repro.sim.rng.randbelow`` — ``randrange``'s rule
    # without its two Python frames — and a Random pong spells ``sample``
    # out over ``getrandbits`` (DESIGN.md "Kernel hot paths").  The caches
    # make every Random draw; a policy makes none.
    for relative in (
        "core/policies.py", "core/query_cache.py", "core/link_cache.py"
    ):
        source = (SRC / relative).read_text(encoding="utf-8")
        assert ".randrange(" not in source and ".sample(" not in source, relative


def test_a_churn_run_draws_through_getrandbits_alone(monkeypatch):
    # Exact, not a ceiling: a churn-like run (pings, deaths, births; no
    # queries) from bootstrap to 60 sim-s.  The getrandbits count is the
    # one ``randrange`` / ``sample`` made before ``randbelow`` replaced
    # them, so the draws are the same; a count of either says the frames
    # are back.
    counts = {"getrandbits": 0, "randrange": 0, "sample": 0}

    def counted(name):
        method = getattr(random.Random, name)

        def counted_method(rng, *args, **kwargs):
            counts[name] += 1
            return method(rng, *args, **kwargs)

        return counted_method

    for name in counts:
        monkeypatch.setattr(random.Random, name, counted(name))
    sim = GuessSimulation(
        SystemParams(network_size=300, query_rate=0.0),
        ProtocolParams(cache_size=10),
        seed=7,
    )
    sim.run(60.0)
    assert sim.transport.probes_sent == 601
    assert counts == {"getrandbits": 7802, "randrange": 0, "sample": 0}


def test_simulation_keyword_arguments():
    parameters = inspect.signature(GuessSimulation.__init__).parameters
    # Ceiling may only be lowered; self, system and protocol are not kwargs.
    assert len(parameters) - 3 <= 14


#: Defaulted knobs that no suite, example, CLI or bench workload sets.
#: May only shrink; each has a verdict in DESIGN.md "Knobs no entry
#: point sets".
UNSET_KNOBS = {
    "FreshnessPlan.notify_delay",
    "FreshnessPlan.on_overload",
    "GossipPlan.hop_delay",
    "GuessSimulation.content",
    "GuessSimulation.keep_queries",
    "GuessSimulation.lifetime_model",
    "ProtocolParams.ping_pong",
    "ProtocolParams.ping_probe",
    "SystemParams.faulty_report_offset",
    "SystemParams.faulty_reporter_mode",
    "SystemParams.num_desired_results",
    "SystemParams.percent_faulty_reporters",
    "TrialSpec.keep_queries",
}


def _knobs() -> dict:
    """``{"Class.field": field}`` for every defaulted knob a user could set."""
    from dataclasses import MISSING

    from repro.baselines.gossip import GossipPlan
    from repro.experiments.executor import TrialSpec
    from repro.faults.plan import FaultPlan
    from repro.freshness.plan import FreshnessPlan
    from repro.resilience.policy import ResiliencePolicy
    from repro.resilience.scenarios import ScenarioPlan

    knobs = {
        f"{kind.__name__}.{f.name}": f.name
        for kind in (
            SystemParams, ProtocolParams, TrialSpec, FaultPlan,
            ScenarioPlan, ResiliencePolicy, GossipPlan, FreshnessPlan,
        )
        for f in fields(kind)
        if f.default is not MISSING or f.default_factory is not MISSING
    }
    for name, parameter in inspect.signature(GuessSimulation.__init__).parameters.items():
        if parameter.default is not inspect.Parameter.empty:
            knobs[f"GuessSimulation.{name}"] = name
    return knobs


def _keyword_setters() -> set:
    """Keyword names passed anywhere in ``src/repro``, examples or bench.

    A forwarding keyword sets nothing: ``name=name`` with ``name`` a
    parameter of the enclosing function, or a value that reads an
    attribute of the same name (``keep_queries=spec.keep_queries``).
    """
    names = set()

    def forwards(keyword, parameters):
        value = keyword.value
        if isinstance(value, ast.Name):
            return value.id == keyword.arg and value.id in parameters
        return any(
            isinstance(node, ast.Attribute) and node.attr == keyword.arg
            for node in ast.walk(value)
        )

    def visit(node, parameters):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args
            parameters = parameters | {
                a.arg
                for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            }
        if isinstance(node, ast.keyword) and node.arg:
            if not forwards(node, parameters):
                names.add(node.arg)
        for child in ast.iter_child_nodes(node):
            visit(child, parameters)

    for root in (SRC, REPO / "examples", REPO / "bench"):
        for path in sorted(root.rglob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return names


def test_knobs_no_user_sets_only_shrink():
    # May only shrink (ROADMAP 'What no user sets goes'): a knob only the
    # tests set goes with its code path, or a stated claim gets a user
    # for it.  A new knob comes with a setter outside the tests.
    setters = _keyword_setters()
    unset = {knob for knob, name in _knobs().items() if name not in setters}
    assert unset <= UNSET_KNOBS, sorted(unset - UNSET_KNOBS)


def _imports(path: Path) -> list:
    """``(bound name, dotted target)`` for each name a file imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(a.asname or a.name, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [
                (a.asname or a.name, f"{node.module}.{a.name}") for a in node.names
            ]
    return found


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_cli(path: Path) -> bool:
    """Whether the module ends in ``if __name__ == "__main__":``."""
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    )


def test_every_module_has_a_user():
    # A module only tests import is one no workload, suite or CLI runs
    # (EXPERIMENTS.md "Execution census").  A package ``__init__`` that
    # re-exports a name is no use of its module: the use is wherever the
    # name is imported, through the package or not.  An ``__init__`` that
    # imports a module itself (``from repro.core import entry``) runs it.
    modules = {
        _module_name(path): path
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }
    used, reexports = set(), {}
    for init in SRC.rglob("__init__.py"):
        for bound, target in _imports(init):
            if target in modules:
                used.add(target)
            else:
                reexports[f"{_module_name(init)}.{bound}"] = target
    importers = [path for path in SRC.rglob("*.py") if path.name != "__init__.py"]
    for other in ("bench", "benchmarks", "examples"):
        importers += (REPO / other).rglob("*.py")
    for path in importers:
        for _, target in _imports(path):
            while target in reexports:
                target = reexports[target]
            used.update((target, target.rsplit(".", 1)[0]))
    orphans = [
        name
        for name, path in sorted(modules.items())
        if name not in used and not _is_cli(path)
    ]
    assert not orphans, orphans


def test_ci_job_count():
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    jobs = workflow.split("\njobs:\n", 1)[1]
    # Ceiling may only be lowered: a new check joins an existing job's matrix.
    assert len(re.findall(r"^  [\w-]+:$", jobs, flags=re.MULTILINE)) <= 6
