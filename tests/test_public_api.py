"""Tests for the package's public surface."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_types_exported(self):
        assert repro.GuessSimulation
        assert repro.SystemParams
        assert repro.ProtocolParams
        assert repro.SimulationReport

    def test_quickstart_snippet_runs(self):
        """The README / module docstring example must keep working."""
        sim = repro.GuessSimulation(
            repro.SystemParams(network_size=50, query_rate=0.05),
            repro.ProtocolParams(query_pong="MFS", cache_size=10),
            seed=7,
        )
        sim.run(200.0)
        report = sim.report()
        assert report.queries > 0
        assert 0.0 <= report.unsatisfied_rate <= 1.0


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.sim",
            "repro.network",
            "repro.workload",
            "repro.core",
            "repro.baselines",
            "repro.metrics",
            "repro.experiments",
            "repro.reporting",
            "repro.extensions",
            "repro.analysis",
            "repro.observe",
            "repro.faults",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.freshness",
            "repro.baselines.gossip",
            "repro.core",
            "repro.core.messages",
            "repro.extensions.detection",
            "repro.observe",
            "repro.network.transport",
        ],
    )
    def test_importable_first_in_a_fresh_interpreter(self, module):
        """``network_sim`` imports the gossip and freshness layers, and
        they import ``repro.core.messages`` back: whichever end a fresh
        interpreter enters the loop from must finish importing.  The
        observe layer and the transport sit below the metrics layer and
        must import on their own too."""
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_policy_registry_names(self):
        assert repro.registered_policy_names() == [
            "LRU", "MFS", "MR", "MRU", "Random",
        ]


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "ConfigError",
            "PolicyError",
            "SimulationError",
            "TopologyError",
            "WorkloadError",
        ):
            error = getattr(repro, name)
            assert issubclass(error, repro.ReproError)

    def test_config_error_is_value_error(self):
        assert issubclass(repro.ConfigError, ValueError)

    def test_policy_error_is_key_error(self):
        assert issubclass(repro.PolicyError, KeyError)
