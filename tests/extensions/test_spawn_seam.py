"""The spawn seam: every extension reaches churn replacements too.

Two mechanisms give each good peer extension state of its own — a
subclass overriding ``GuessSimulation._peer_spawned`` and
``install_defense`` wrapping it on a live instance.  A peer role added to
``_spawn_peer`` (faulty reporters were the last one) must not need a
matching edit in either, so the run below is churn-heavy, has all three
roles in the population, and checks the peers born *after* the
bootstrap.
"""

from __future__ import annotations

import pytest

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.extensions.detection import install_defense
from repro.extensions.selfish_sim import SelfishGuessSimulation

SYSTEM = SystemParams(
    network_size=60,
    lifespan_multiplier=0.05,
    percent_bad_peers=10.0,
    percent_faulty_reporters=20.0,
)
PROTOCOL = ProtocolParams(cache_size=15)


def selfish():
    sim = SelfishGuessSimulation(SYSTEM, PROTOCOL, seed=5, percent_selfish=100.0)
    return sim, lambda peer: peer.address in sim._selfish


def defended():
    sim = GuessSimulation(SYSTEM, PROTOCOL, seed=5)
    install_defense(sim)
    return sim, lambda peer: peer.defense is not None


@pytest.mark.parametrize("build", [selfish, defended])
def test_churn_replacements_carry_extension_state(build):
    sim, equipped = build()
    sim.run(300.0)
    reborn = [peer for peer in sim.live_peers if peer.birth_time > 0.0]
    good = [peer for peer in reborn if not peer.malicious]
    assert any(peer.faulty for peer in good)
    assert any(peer.malicious for peer in reborn)
    assert good and all(equipped(peer) for peer in good)
    assert not any(equipped(peer) for peer in reborn if peer.malicious)
