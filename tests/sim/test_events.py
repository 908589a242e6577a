"""Tests for the priority classes that order same-time events."""

from __future__ import annotations

from repro.sim.events import EventPriority


class TestEventPriority:
    def test_death_runs_before_everything(self):
        assert EventPriority.DEATH < EventPriority.BIRTH
        assert EventPriority.BIRTH < EventPriority.PROTOCOL
        assert EventPriority.PROTOCOL < EventPriority.QUERY
        assert EventPriority.QUERY < EventPriority.METRICS
