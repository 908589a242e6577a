"""Kernel hot-path microbenchmarks, persisted to ``BENCH_kernel.json``.

These pin the throughput of the paths PR 2 optimized — the event loop's
args-based dispatch, ``GuessSimulation``'s friend sampling and health
snapshots, and ``LinkCache``'s full-cache insert contest (key-based,
key-based with every contestant tied, Random with interleaved
evictions, and Random in a full cache of ten), a Random pong's top-k
from caches of 100 and of 10, a key-based pong's top-k and the
k-th-live-peer lookup
against its one-line ``islice`` spelling — plus the
parallel trial executor's end-to-end speedup.  Each test folds its
measured rate into a module-level result dict; a module-scoped fixture
merges the dict into ``BENCH_kernel.json`` at the repo root so the
numbers are diffable across commits.

Scale is controlled by ``REPRO_BENCH_SCALE``:

* ``bench`` (default) — the committed-baseline scale; takes ~a minute.
* ``tiny`` — CI smoke scale; seconds, numbers only sanity-checked.

Speedup numbers are recorded honestly: ``cpu_count`` is stored next to
them, and on a single-core runner the parallel sweep is *expected* to
show speedup <= 1 (process spawn overhead with no parallelism to win).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import platform
import random
import subprocess
import sys
import time
import types

import pytest

import repro
from repro.core.entry import CacheEntry
from repro.core.link_cache import LinkCache
from repro.core.messages import Query
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.core.peer import GuessPeer
from repro.core.peer_store import PeerStore
from repro.core.policies import (
    PolicySet,
    get_ordering_policy,
    get_replacement_policy,
)
from repro.experiments.runner import run_guess_config
from repro.network.transport import Transport
from repro.sim.engine import Simulator

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_kernel.json"
)

SCALE = os.environ.get("REPRO_BENCH_SCALE", "bench")
if SCALE not in ("bench", "tiny"):
    raise RuntimeError(f"REPRO_BENCH_SCALE must be bench or tiny, not {SCALE!r}")

#: (engine events, sim size, sim duration, insert count, sweep size).
#: The sweep is the same at both scales: its serial-vs-workers=2
#: assertion needs ~2 s of serial work for the pool's start-up cost
#: (~0.1 s) to sit well inside the 1.2x margin.
_KNOBS = {
    "bench": dict(
        engine_events=50_000,
        sim_size=100,
        sim_cache=30,
        sim_duration=400.0,
        inserts=5_000,
        sweep_size=150,
        sweep_duration=400.0,
        sweep_trials=4,
        scaling_cells=((1_000, 120.0), (10_000, 120.0), (100_000, 60.0)),
        kth_live_sizes=(10_000, 100_000),
    ),
    "tiny": dict(
        engine_events=5_000,
        sim_size=40,
        sim_cache=10,
        sim_duration=60.0,
        inserts=1_000,
        sweep_size=150,
        sweep_duration=400.0,
        sweep_trials=4,
        scaling_cells=((200, 30.0), (1_000, 30.0)),
        kth_live_sizes=(1_000, 5_000),
    ),
}[SCALE]

#: Memory ceiling for the scaling curve's largest population, asserted
#: at both scales.  The measured footprint is ~4.2 KB/peer at 10k peers
#: (~5.1 KB on tiny's 1000-peer cell, where fixed costs weigh more): the
#: library's rank array ~960 B, ten seeded cache entries 720 B, the
#: cache dict 288 B, the peer 200 B, two queued events ~500 B.  Peers
#: share the registry's named RNG streams, so none of it is generator
#: state; the ~23 KB measured through PR 18 was each library's frozenset
#: (hash table ~13.4 KB + boxed ranks ~6 KB).  About 2x headroom, so the
#: assertion catches a new per-peer owner, not allocator noise.
_RSS_BUDGET_BYTES_PER_PEER = 8 * 1024

#: Rates accumulated by the tests in this module, merged into
#: RESULTS_PATH when the module finishes.
_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _persist_results():
    """Merge this module's measured rates into ``BENCH_kernel.json``."""
    yield
    if not _RESULTS:
        return
    payload = {
        "schema": "repro-bench-kernel/1",
        "scale": SCALE,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "metrics": {},
    }
    if RESULTS_PATH.exists():
        try:
            previous = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
            if previous.get("scale") == SCALE:
                payload["metrics"] = previous.get("metrics", {})
        except (ValueError, OSError):
            pass
    payload["metrics"].update(
        {
            key: round(value, 2) if isinstance(value, float) else value
            for key, value in sorted(_RESULTS.items())
        }
    )
    tmp = RESULTS_PATH.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, RESULTS_PATH)


def _mean_seconds(benchmark) -> float:
    return benchmark.stats.stats.mean


def test_engine_events_per_sec(benchmark):
    """Schedule + fire no-op events through the args-based dispatch."""
    count = _KNOBS["engine_events"]

    def noop(tag):
        return tag

    def run():
        sim = Simulator()
        for i in range(count):
            sim.schedule(float(i % 100), noop, args=(i,))
        sim.run_until(101.0)
        return sim.events_executed

    executed = benchmark(run)
    assert executed == count
    _RESULTS["engine_events_per_sec"] = count / _mean_seconds(benchmark)


def test_sim_events_per_sec(benchmark):
    """Whole-simulation throughput: events/sec and sim-seconds/sec."""
    duration = _KNOBS["sim_duration"]

    def run():
        sim = GuessSimulation(
            SystemParams(network_size=_KNOBS["sim_size"]),
            ProtocolParams(cache_size=_KNOBS["sim_cache"]),
            seed=7,
        )
        sim.run(duration)
        return sim.engine.events_executed

    executed = benchmark(run)
    assert executed > 0
    mean = _mean_seconds(benchmark)
    _RESULTS["sim_events_per_sec"] = executed / mean
    _RESULTS["sim_seconds_per_sec"] = duration / mean


def _full_cache_inserts_per_sec(benchmark, replacement, entries) -> float:
    """Insert ``entries`` into a cache of 100 under a key-based policy."""
    policy = get_replacement_policy(replacement)
    rng = random.Random(0)

    def run():
        cache = LinkCache(capacity=100, owner=0)
        for entry in entries:
            cache.insert(entry, policy, rng)
        return len(cache)

    assert benchmark(run) == 100
    return len(entries) / _mean_seconds(benchmark)


def test_link_cache_inserts_per_sec(benchmark):
    """Full-cache inserts: every one runs the no-copy eviction contest."""
    rng = random.Random(0)
    entries = [
        CacheEntry(address=i, num_files=rng.randrange(1000))
        for i in range(1, _KNOBS["inserts"] + 1)
    ]
    _RESULTS["link_cache_inserts_per_sec"] = _full_cache_inserts_per_sec(
        benchmark, "LFS", entries
    )


def test_keyed_tied_contest_per_sec(benchmark):
    """LR inserts into a full cache of 100 where every ``NumRes`` is 0.

    LR's contest in a run: its lowest ``NumRes`` is always shared, so
    every contest is settled on address — here all 101 contestants tie.
    Addresses arrive shuffled, so about half the candidates win: the cache
    compares each with its LR ranking's victim end, and a winner moves
    both ends of that ranking.
    """
    entries = [CacheEntry(address=i) for i in range(1, _KNOBS["inserts"] + 1)]
    random.Random(5).shuffle(entries)
    _RESULTS["keyed_tied_contest_per_sec"] = _full_cache_inserts_per_sec(
        benchmark, "LR", entries
    )


def test_link_cache_random_inserts_per_sec(benchmark):
    """Random-replacement inserts with interleaved evictions.

    The paper's default policy and the shape a query leaves behind: a
    full cache of 100 where most inserts run the k-th-resident eviction
    contest and every fourth step evicts a recent insert (a dead
    probe), so order has to survive holes and refills.
    """
    policy = get_replacement_policy("Random")
    count = _KNOBS["inserts"]
    entries = [CacheEntry(address=i) for i in range(1, count + 1)]

    def run():
        rng = random.Random(0)
        cache = LinkCache(capacity=100, owner=0)
        for step, entry in enumerate(entries):
            cache.insert(entry, policy, rng)
            if step % 4 == 3:
                cache.evict(entry.address - 50)
        return len(cache)

    size = benchmark(run)
    assert 50 <= size <= 100
    _RESULTS["link_cache_random_inserts_per_sec"] = count / _mean_seconds(benchmark)


def test_query_probe_roundtrips_per_sec(benchmark):
    """One ``Transport.probe`` of a ``Query``: the reply path, end to end.

    What a simulated probe costs at Table-1/2 defaults (ROADMAP item
    10(a)): library lookup, ``make_pong`` over a full 100-entry cache
    under the Random policy, the introduction coin and the three reply
    records (no capacity limit, so no rate limiter).  Every probe comes
    from another sender, as in a 5000-peer run, so one in ten is
    introduced through a full-cache eviction contest.
    """
    protocol = ProtocolParams().normalized()
    policies = PolicySet.from_protocol(protocol)
    count = _KNOBS["inserts"]
    queries = [
        Query(sender=1_000 + i, target_file=7, sender_num_files=3)
        for i in range(count)
    ]

    def run():
        responder = GuessPeer(
            1,
            num_files=3,
            library=frozenset({1, 2, 3}),
            birth_time=0.0,
            death_time=1e9,
            protocol=protocol,
            policies=policies,
            max_probes_per_second=None,
            policy_rng=random.Random(0),
            intro_rng=random.Random(1),
        )
        responder.link_cache.admit(
            [CacheEntry(address=a) for a in range(2, 2 + protocol.cache_size)],
            policies.replacement, 0.0, random.Random(0),
        )
        transport = Transport()
        transport.register(1, responder)
        probe = transport.probe
        shown = 0
        for query in queries:
            reply = probe(query.sender, 1, query, 1.0).response
            shown += len(reply.pong.entries)
        return shown

    assert benchmark(run) == count * protocol.pong_size
    _RESULTS["query_probe_roundtrips_per_sec"] = count / _mean_seconds(benchmark)


def _random_cache(size: int) -> LinkCache:
    """A link cache holding ``size`` entries, filled without a contest."""
    cache = LinkCache(capacity=size, owner=-1)
    cache.admit(
        [CacheEntry(address=i) for i in range(size)],
        get_replacement_policy("Random"), 0.0, random.Random(0),
    )
    return cache


def test_random_select_top_per_sec(benchmark):
    """``LinkCache.select_top`` under Random: 5 of 100, every pong's draw."""
    policy = get_ordering_policy("Random")
    cache = _random_cache(100)
    count = _KNOBS["inserts"]

    def run():
        rng = random.Random(0)
        picked = 0
        for _ in range(count):
            picked += len(cache.select_top(policy, 5, rng))
        return picked

    assert benchmark(run) == count * 5
    _RESULTS["random_select_top_per_sec"] = count / _mean_seconds(benchmark)


def test_random_pool_select_top_per_sec(benchmark):
    """``LinkCache.select_top`` under Random: 5 of 10, every pong of
    ``churn_n10000``.

    A population this small takes ``sample``'s pool branch (swap-remove),
    not the rejection branch the 5-of-100 cell above measures.
    """
    policy = get_ordering_policy("Random")
    cache = _random_cache(10)
    count = _KNOBS["inserts"]

    def run():
        rng = random.Random(0)
        picked = 0
        for _ in range(count):
            picked += len(cache.select_top(policy, 5, rng))
        return picked

    assert benchmark(run) == count * 5
    _RESULTS["random_pool_select_top_per_sec"] = count / _mean_seconds(benchmark)


def test_random_contest_per_sec(benchmark):
    """Random-replacement inserts into a full cache of 10.

    ``churn_n10000``'s caches: always full, so every insert is one
    contest, ``LinkCache.admit``'s ``randbelow`` draw over ten residents
    and the candidate.
    """
    policy = get_replacement_policy("Random")
    count = _KNOBS["inserts"]
    entries = [CacheEntry(address=i) for i in range(1, count + 1)]

    def run():
        rng = random.Random(0)
        cache = LinkCache(capacity=10, owner=0)
        for entry in entries:
            cache.insert(entry, policy, rng)
        return len(cache)

    assert benchmark(run) == 10
    _RESULTS["random_contest_per_sec"] = count / _mean_seconds(benchmark)


def test_keyed_select_top_per_sec(benchmark):
    """A key-based pong: 5 of a cache of 100 under MFS.

    ``LinkCache.select_top`` slices the MFS ranking the cache keeps.
    ``NumFiles`` as a cache holds it: a third free riders at 0, the rest
    spread, one poisoned claim.
    """
    policy = get_ordering_policy("MFS")
    rng = random.Random(0)
    cache = LinkCache(capacity=100, owner=0)
    for i in range(1, 101):
        files = 60_000 if i == 41 else rng.choice((0, rng.randrange(1, 1000)))
        cache.insert(CacheEntry(address=i, num_files=files), policy, rng)
    count = _KNOBS["inserts"]

    def run():
        picked = 0
        for _ in range(count):
            picked += len(cache.select_top(policy, 5, rng))
        return picked

    assert benchmark(run) == count * 5
    _RESULTS["keyed_select_top_per_sec"] = count / _mean_seconds(benchmark)


@functools.lru_cache(maxsize=None)
def _churned_store(live: int) -> PeerStore:
    """``live`` peers after ``live`` death/rebirth steps.

    Every step removes a uniformly drawn live peer and adds a new
    address, as ``_on_death`` + ``_spawn_peer`` do, so the peer dict has
    the holes a long run leaves.  The store only reads ``address`` and
    ``malicious``, so the peers are bare namespaces.
    """
    rng = random.Random(0)
    store = PeerStore()
    for address in range(live):
        store.add(types.SimpleNamespace(address=address, malicious=False))
    for address in range(live, 2 * live):
        store.remove(store.kth_live(rng.randrange(live)).address)
        store.add(types.SimpleNamespace(address=address, malicious=False))
    return store


@pytest.mark.parametrize("spelling", ["list", "islice"])
@pytest.mark.parametrize("live", _KNOBS["kth_live_sizes"])
def test_kth_live_per_sec(benchmark, live, spelling):
    """``PeerStore.kth_live`` against a walk of the peer dict.

    The store keeps its live addresses as an ascending list, so the k-th
    live peer is one index and one dict lookup (``list``); without that
    list it is an O(k) walk of the birth-ordered peer dict (``islice``).
    The gap between the two is what justifies the store keeping the
    list; what the list costs instead is a ``bisect`` and a ``del`` per
    death (DESIGN.md §10).  Both are timed on the same churned store and
    the same draws, and must pick the same peers.
    """
    store = _churned_store(live)
    rng = random.Random(1)
    ks = [rng.randrange(live) for _ in range(200)]
    peers = store._peers
    if spelling == "list":
        kth = store.kth_live
    else:
        def kth(k):
            return next(itertools.islice(peers.values(), k, None))

    def run():
        return [kth(k) for k in ks]

    picked = benchmark(run)
    assert picked == [store.kth_live(k) for k in ks]
    rate = len(ks) / _mean_seconds(benchmark)
    _RESULTS[f"kth_live_{spelling}_n{live}_per_sec"] = rate


#: Runs one scaling cell in a fresh interpreter and prints a JSON line:
#: the child's RSS is then that cell's population alone, not whatever
#: the benchmark process accumulated before it.
_SCALING_CELL_SCRIPT = """
import json, resource, sys, time
network_size, duration = int(sys.argv[1]), float(sys.argv[2])
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams

def rss_bytes():
    # Current (not peak) resident size, so the import-time high-water
    # mark can't mask small populations; ru_maxrss is the fallback.
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

baseline = rss_bytes()
sim = GuessSimulation(
    SystemParams(network_size=network_size, query_rate=0.0),
    ProtocolParams(cache_size=10),
    seed=7,
)
started = time.perf_counter()
sim.run(duration)
elapsed = time.perf_counter() - started
print(json.dumps({
    "events_per_sec": sim.engine.events_executed / elapsed,
    "rss_bytes": rss_bytes() - baseline,
}))
"""


def _run_scaling_cell(network_size: int, duration: float) -> dict:
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _SCALING_CELL_SCRIPT,
            str(network_size),
            str(duration),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_peer_scaling_curve():
    """Peers-vs-RSS and peers-vs-events/s across the population sweep.

    A churn-only workload (``query_rate=0``) isolates the kernel paths
    this module pins — timers, peer store, link-cache maintenance —
    from the protocol's probe fan-out, whose per-query cost grows with
    network size by design (flexible extent).  Each cell runs in its
    own interpreter so RSS is attributable to that population.  The
    largest population must stay inside the per-peer memory budget at
    either scale (CI runs ``tiny``).
    """
    largest = max(size for size, _ in _KNOBS["scaling_cells"])
    for network_size, duration in _KNOBS["scaling_cells"]:
        cell = _run_scaling_cell(network_size, duration)
        bytes_per_peer = cell["rss_bytes"] / network_size
        _RESULTS[f"scale_n{network_size}_heap_events_per_sec"] = cell["events_per_sec"]
        _RESULTS[f"scale_n{network_size}_rss_mb"] = cell["rss_bytes"] / (1024 * 1024)
        _RESULTS[f"scale_n{network_size}_rss_bytes_per_peer"] = bytes_per_peer
        assert cell["events_per_sec"] > 0
        # Smaller cells are mostly fixed cost (the two 20 000-rank Zipf
        # tables are ~1.3 MB), so only the largest is held to the budget.
        if network_size == largest:
            assert bytes_per_peer < _RSS_BUDGET_BYTES_PER_PEER, (
                f"{bytes_per_peer:,.0f} B/peer at n={network_size} "
                f"blows the {_RSS_BUDGET_BYTES_PER_PEER} B budget"
            )


def test_parallel_sweep_speedup():
    """Serial vs 2-worker executor on one multi-trial configuration.

    Not a pytest-benchmark test: the two variants must run in a fixed
    order within a single test so their ratio is meaningful.  The wall
    times and the ratio land in BENCH_kernel.json alongside cpu_count
    and an explicit ``parallel_insufficient_cores`` flag — on a
    single-core runner the ratio is expected to be <= 1 (process spawn
    overhead with no parallelism to win), and the flag says so instead
    of leaving a mysteriously sub-1 "speedup" in the baseline.
    """
    system = SystemParams(network_size=_KNOBS["sweep_size"])
    protocol = ProtocolParams(cache_size=10)
    kwargs = dict(
        duration=_KNOBS["sweep_duration"],
        warmup=0.0,
        trials=_KNOBS["sweep_trials"],
        base_seed=99,
    )

    started = time.perf_counter()  # repro: allow-wallclock (benchmark timing)
    serial = run_guess_config(system, protocol, workers=1, **kwargs)
    serial_sec = time.perf_counter() - started  # repro: allow-wallclock

    started = time.perf_counter()  # repro: allow-wallclock
    parallel = run_guess_config(system, protocol, workers=2, **kwargs)
    parallel_sec = time.perf_counter() - started  # repro: allow-wallclock

    assert [r.queries for r in serial] == [r.queries for r in parallel]
    cores = os.cpu_count() or 1
    _RESULTS["parallel_serial_sec"] = serial_sec
    _RESULTS["parallel_workers2_sec"] = parallel_sec
    _RESULTS["parallel_speedup_workers2"] = (
        serial_sec / parallel_sec if parallel_sec > 0 else 0.0
    )
    _RESULTS["parallel_cpu_count"] = cores
    _RESULTS["parallel_insufficient_cores"] = cores < 2
    if cores >= 2:
        # Only meaningful with real parallelism available: two workers
        # on two cores must beat serial (modulo spawn overhead).
        assert parallel_sec < serial_sec * 1.2
