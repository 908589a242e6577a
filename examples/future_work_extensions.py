#!/usr/bin/env python3
"""Future-work extensions: the threads the paper left open, measured.

Three mini-demos on top of the reproduced core:

1. **Selfish peers and probe payments** (§3.3) — a selfish peer blasts
   the whole network per query; a token-bucket probe budget caps it.
2. **Malicious-peer detection** (§6.4) — pong-provenance heuristics
   rescue the MR policy from the colluding attack that defeats it.
3. **What the defense learns** — one peer's view of a poisoning source.

Run:
    python examples/future_work_extensions.py
"""

import random

from repro import (
    BadPongBehavior,
    GuessSimulation,
    ProtocolParams,
    SystemParams,
)
from repro.extensions import (
    DefenseConfig,
    PongDefense,
    ProbeBudget,
    execute_selfish_query,
)
from repro.extensions.detection import install_defense


def demo_selfish_and_payments() -> None:
    print("1) selfish peers vs probe payments")
    sim = GuessSimulation(
        SystemParams(network_size=300), ProtocolParams(), seed=3
    )
    sim.run(120.0)  # warm the caches
    selfish_peer = sim.live_good_peers[0]
    rng = random.Random(0)
    target = sim.content.draw_query_target(rng)

    unbounded = execute_selfish_query(
        selfish_peer, target, sim.transport, sim.now, rng=rng
    )
    print(
        f"   no payments: {unbounded.probes} probes fired in "
        f"{unbounded.duration:.1f}s of protocol time"
    )
    budget = ProbeBudget(refill_rate=0.5, capacity=25)
    bounded = execute_selfish_query(
        selfish_peer, target, sim.transport, sim.now, rng=rng, budget=budget
    )
    print(
        f"   with budget: {bounded.probes} probes "
        f"(bucket now {budget.available(sim.now)} credits)\n"
    )


def demo_detection() -> None:
    print("2) detection vs the colluding attack (MR stack, 20% attackers)")
    for defended in (False, True):
        sim = GuessSimulation(
            SystemParams(
                network_size=300,
                percent_bad_peers=20.0,
                bad_pong_behavior=BadPongBehavior.BAD,
            ),
            ProtocolParams.all_same_policy("MR", cache_size=30),
            seed=19,
            warmup=200.0,
        )
        if defended:
            install_defense(sim, DefenseConfig(min_observations=5))
        sim.run(900.0)
        report = sim.report()
        label = "defended  " if defended else "undefended"
        print(
            f"   {label}: unsatisfied {report.unsatisfied_rate:5.1%}, "
            f"good cache entries {report.mean_good_entries:4.1f}/30"
        )
    print()


def demo_defense_object() -> None:
    print("3) what the defense learns (one peer's view)")
    defense = PongDefense(DefenseConfig(min_observations=5))
    # A poisoner (address 66) keeps sharing entries that die on probe.
    for fake in range(900, 908):
        defense.record_import(fake, source=66)
        defense.record_dead(fake)
    shared, dead, barren, productive = defense.source_stats(66)
    print(
        f"   source 66: shared={shared} dead={dead} barren={barren} "
        f"productive={productive} -> blacklisted={defense.blocked(66)}"
    )


def main() -> None:
    demo_selfish_and_payments()
    demo_detection()
    demo_defense_object()


if __name__ == "__main__":
    main()
