"""Tests for the run_all CLI plumbing."""

from __future__ import annotations

import pytest

from repro.experiments.run_all import (
    EXPERIMENT_SUITE,
    SUITES,
    resolve_suites,
)


class TestResolveSuites:
    def test_default_is_everything(self):
        assert resolve_suites(None) == list(SUITES)
        assert resolve_suites([]) == list(SUITES)

    def test_suite_name_passthrough(self):
        assert resolve_suites(["fairness"]) == ["fairness"]

    def test_experiment_id_maps_to_suite(self):
        assert resolve_suites(["fig8"]) == ["flexible_extent"]
        assert resolve_suites(["table3"]) == ["cache_size"]

    def test_duplicates_collapse(self):
        assert resolve_suites(["fig3", "fig4", "cache_size"]) == ["cache_size"]

    def test_order_preserved(self):
        assert resolve_suites(["fig13", "fig8"]) == [
            "fairness", "flexible_extent",
        ]

    def test_unknown_token_exits(self):
        with pytest.raises(SystemExit):
            resolve_suites(["fig99"])


class TestCoverage:
    def test_every_paper_artifact_mapped(self):
        paper = {"table3"} | {f"fig{i}" for i in range(3, 22)}
        beyond_paper = {
            "loss_grid",
            "loss_satisfaction",
            "storm_grid",
            "storm_recovery",
            "gossip_compare",
            "gossip_faulty",
            "freshness_grid",
            "freshness_recovery",
        }
        ablations = {
            f"ablation-{name}"
            for name in (
                "parallel", "backoff", "adaptive-search", "detection",
                "selfish", "pongsize", "introprob",
            )
        }
        assert set(EXPERIMENT_SUITE) == paper | beyond_paper | ablations

    def test_all_mapped_suites_exist(self):
        assert set(EXPERIMENT_SUITE.values()) <= set(SUITES)

    def test_ablation_ids_map_to_ablations(self):
        # The ids EXPERIMENTS.md and DESIGN.md §5 label their rows with.
        assert resolve_suites(["ablation-backoff"]) == ["ablations"]
        assert resolve_suites(["ablation-selfish", "fig8"]) == [
            "ablations", "flexible_extent",
        ]

    def test_no_id_is_declared_twice(self):
        declared = [i for _, ids in SUITES.values() for i in ids]
        assert len(declared) == len(set(declared)) == len(EXPERIMENT_SUITE)

    def test_packet_loss_ids_map_to_packet_loss(self):
        assert resolve_suites(["loss_grid"]) == ["packet_loss"]
        assert resolve_suites(["loss_satisfaction"]) == ["packet_loss"]

    def test_storm_ids_map_to_churn_storm(self):
        assert resolve_suites(["storm_grid"]) == ["churn_storm"]
        assert resolve_suites(["storm_recovery"]) == ["churn_storm"]

    def test_freshness_ids_map_to_cache_freshness(self):
        assert resolve_suites(["freshness_grid"]) == ["cache_freshness"]
        assert resolve_suites(["freshness_recovery"]) == ["cache_freshness"]
