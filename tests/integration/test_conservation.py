"""Wire-level probe conservation on the all-armed recipe.

The digests pin that a run repeats; these pin that its books balance:
every probe the transport carried is one the collector booked under
exactly one channel, every query probe has exactly one outcome, and the
stale/fresh split covers the dead.  The recipe is ``TestAllArmedPin``'s
(``tests/integration/test_determinism.py``) with ``warmup=0``, so the
warmup filter hides nothing; the lossy arm adds retries on every channel
that has them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.network_sim import GuessSimulation
from repro.faults.plan import FaultPlan
from tests.integration.test_determinism import TestAllArmedPin as ARMED


@pytest.mark.parametrize(
    "faults, probe_retries, probes_sent",
    [
        pytest.param(None, 0, 61_105, id="clean"),
        pytest.param(FaultPlan(loss_rate=0.05), 2, 64_942, id="lossy-with-retries"),
    ],
)
def test_every_probe_on_the_wire_is_booked_once(faults, probe_retries, probes_sent):
    sim = GuessSimulation(
        ARMED.SYSTEM,
        replace(ARMED.PROTOCOL, probe_retries=probe_retries),
        seed=7,
        warmup=0.0,
        faults=faults,
        **ARMED.PLANS,
    )
    sim.run(200.0)
    report = sim.report()

    assert report.transport_probes_sent == probes_sent
    assert report.transport_probes_sent == (
        report.total_probes
        + report.probe_retries
        + report.pings_sent
        + report.ping_retries
        + report.gossip_pushes
        + report.freshness_notices
    )
    assert report.total_probes == (
        report.good_probes + report.dead_probes + report.refused_probes
    )
    # The stale share of each channel's dead probes; the rest is fresh.
    assert report.stale_dead_query_probes <= report.dead_probes
    assert report.stale_dead_pings <= report.dead_pings
    stale = report.stale_dead_query_probes + report.stale_dead_pings
    assert 0 < stale < report.dead_probes + report.dead_pings
    if probe_retries:
        assert report.probe_retries > 0 and report.ping_retries > 0
