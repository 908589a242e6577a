"""End-to-end smoke tests: every experiment suite runs and produces the
right experiment ids, columns, and series shapes at micro scale.

These use a tiny in-test profile (far below the ``smoke`` registry
profile) so the whole block stays fast; the *qualitative* paper shapes
are asserted separately in the integration tests at larger scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ablations,
    cache_freshness,
    cache_size,
    capacity,
    fairness,
    flexible_extent,
    gossip_search,
    malicious,
    packet_loss,
    ping_interval,
    policy_comparison,
)
from repro.experiments.run_all import SUITES
from repro.observe.manifest import ManifestRecorder, activated, verify_manifest
from tests.experiments.helpers import MICRO, pinned


def ids(results, suite: str) -> list:
    """The results' experiment ids — exactly ``suite``'s registry row."""
    if not isinstance(results, list):
        results = [results]
    found = [result.experiment_id for result in results]
    assert found == list(SUITES[suite][1])
    return found


class TestCacheSizeSuite:
    @pytest.fixture(scope="class")
    def results(self):
        return pinned(
            cache_size.run_suite(MICRO),
            "7c33a0931d4978e96abb2ef7ac7efc01a7fddc32af77fd563dcdb0cdc16571b3",
        )

    def test_ids(self, results):
        assert ids(results, "cache_size") == [
            "table3", "fig3", "fig4", "fig5",
        ]

    def test_table3_rows(self, results):
        table3 = results[0]
        assert table3.columns == ("CacheSize", "Fraction Live", "Absolute Live")
        for _, fraction, absolute in table3.rows:
            assert 0.0 <= fraction <= 1.0
            assert absolute >= 0.0

    def test_fig3_series_per_network(self, results):
        fig3 = results[1]
        assert set(fig3.series) == {"N=60"}
        assert len(fig3.series["N=60"]) == 2

    def test_fig5_series(self, results):
        fig5 = results[3]
        assert set(fig5.series) == {"Dead", "Good"}


class TestPingIntervalSuite:
    @pytest.fixture(scope="class")
    def results(self):
        return pinned(
            ping_interval.run_suite(MICRO),
            "8bc27db0029d8c26b4612e509bed78be4b3ca2e6a3c500b29bada472059670b8",
        )

    def test_ids(self, results):
        assert ids(results, "ping_interval") == ["fig6", "fig7"]

    def test_fig6_lcc_bounds(self, results):
        for label, points in results[0].series.items():
            for _, lcc in points:
                assert 1 <= lcc <= 60

    def test_fig7_relative_lcc(self, results):
        for points in results[1].series.values():
            for _, relative in points:
                assert 0.0 < relative <= 1.0


class TestFlexibleExtentSuite:
    @pytest.fixture(scope="class")
    def result(self):
        return pinned(
            flexible_extent.run_fig8(MICRO),
            "44037f951e589e3b20253c28a9fc362f92160cffc751e4fdea3ea4ad77ea633d",
        )

    def test_id(self, result):
        assert ids(result, "flexible_extent") == ["fig8"]

    def test_mechanisms_present(self, result):
        assert "FixedExtent(Gnutella)" in result.series
        assert "IterativeDeepening" in result.series
        assert "GUESS Random" in result.series
        assert "GUESS QueryPong=MFS" in result.series

    def test_fixed_extent_curve_monotone(self, result):
        curve = result.series["FixedExtent(Gnutella)"]
        rates = [u for _, u in curve]
        assert rates == sorted(rates, reverse=True)

    def test_guess_cheaper_than_full_flood(self, result):
        guess_cost, _ = result.series["GUESS Random"][0]
        flood_costs = [c for c, _ in result.series["FixedExtent(Gnutella)"]]
        assert guess_cost < max(flood_costs)


class TestPolicyComparisonSuite:
    @pytest.fixture(scope="class")
    def results(self):
        return pinned(
            policy_comparison.run_suite(MICRO),
            "5032bf7ebe7eaa17f20df91b4a0dfa2877f6887557dcd802d953d805b9849e57",
        )

    def test_ids(self, results):
        assert ids(results, "policy_comparison") == [
            "fig9", "fig10", "fig11", "fig12",
        ]

    def test_policy_menus(self, results):
        fig9, fig10, fig11, fig12 = results
        assert [row[0] for row in fig9.rows] == list(
            policy_comparison.ORDERING_POLICIES
        )
        assert [row[0] for row in fig11.rows] == list(
            policy_comparison.REPLACEMENT_POLICIES
        )

    def test_probe_breakdown_consistent(self, results):
        for result in results[:3]:
            for row in result.rows:
                _, good, dead, total = row
                assert total == pytest.approx(good + dead, abs=1e-6)

    def test_fig12_rates_valid(self, results):
        for _, unsat in results[3].rows:
            assert 0.0 <= unsat <= 1.0


class TestFairnessSuite:
    @pytest.fixture(scope="class")
    def result(self):
        return pinned(
            fairness.run_fig13(MICRO),
            "343a85b1fdec58cd71e99d80647a29c92c4f9254826d71d23ff8fcc5ed753e66",
        )

    def test_id(self, result):
        assert ids(result, "fairness") == ["fig13"]

    def test_all_combos_present(self, result):
        expected = {f"{p}/{r}" for p, r in fairness.COMBOS}
        assert set(result.series) == expected

    def test_ranked_series_descending(self, result):
        for points in result.series.values():
            loads = [load for _, load in points]
            assert loads == sorted(loads, reverse=True)

    def test_summary_rows(self, result):
        assert result.columns == ("Combo", "Total probes", "Top-1% share", "Gini")
        for _, total, share, gini in result.rows:
            assert total >= 0
            assert 0.0 <= share <= 1.0
            assert 0.0 <= gini <= 1.0


class TestCapacitySuite:
    @pytest.fixture(scope="class")
    def results(self):
        return pinned(
            capacity.run_suite(MICRO),
            "21c828343a6a5c372d99bf789efe8316f8304a4411e0f5f505d5b38c838a53fc",
        )

    def test_ids(self, results):
        assert ids(results, "capacity") == ["fig14", "fig15"]

    def test_fig14_grid_complete(self, results):
        rows = results[0].rows
        assert len(rows) == len(MICRO.network_sizes) * len(capacity.CAPACITIES)

    def test_fig15_series(self, results):
        assert set(results[1].series) == {
            f"N={n}" for n in MICRO.network_sizes
        }


class TestMaliciousSuite:
    @pytest.fixture(scope="class")
    def results(self):
        return pinned(
            malicious.run_suite(MICRO),
            "ec79df45785d1336ba13deb6e256f4ef8bf77e8051ef52e143afbbf0ea72bcfc",
        )

    def test_ids(self, results):
        assert ids(results, "malicious") == [
            "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
        ]

    def test_each_figure_has_all_policies(self, results):
        for result in results:
            assert set(result.series) == set(malicious.POLICIES)

    def test_unsat_rates_valid(self, results):
        for result in (results[1], results[4]):  # fig17, fig20
            for points in result.series.values():
                for _, unsat in points:
                    assert 0.0 <= unsat <= 1.0

    def test_good_entries_nonnegative(self, results):
        for result in (results[2], results[5]):  # fig18, fig21
            for points in result.series.values():
                for _, entries in points:
                    assert entries >= 0.0


class TestPacketLossSuite:
    @pytest.fixture(scope="class")
    def captured(self):
        """Suite results plus the manifest its run records."""
        recorder = ManifestRecorder()
        with activated(recorder):
            results = packet_loss.run_suite(MICRO)
        manifest = recorder.build(
            profile=MICRO.name,
            suites=["packet_loss"],
            workers=1,
            wall_clock_seconds=0.0,
        )
        return results, manifest

    @pytest.fixture(scope="class")
    def results(self, captured):
        return pinned(
            captured[0],
            "1dedc5d1349525b2cb3e3599f3a0e9ed86b4df87b5f2229523eddb50500bbec6",
        )

    def test_ids(self, results):
        assert ids(results, "packet_loss") == [
            "loss_grid", "loss_satisfaction",
        ]

    def test_grid_complete(self, results):
        rows = results[0].rows
        assert len(rows) == len(packet_loss.LOSS_RATES) * len(
            packet_loss.RETRY_BUDGETS
        )
        assert {(loss, retries) for loss, retries, *_ in rows} == {
            (loss, retries)
            for loss in packet_loss.LOSS_RATES
            for retries in packet_loss.RETRY_BUDGETS
        }

    def test_grid_rates_valid(self, results):
        for row in results[0].rows:
            satisfied, recovery, live = row[2], row[7], row[8]
            assert 0.0 <= satisfied <= 1.0
            assert 0.0 <= recovery <= 1.0
            assert 0.0 <= live <= 1.0

    def test_satisfaction_series_per_budget(self, results):
        series = results[1].series
        assert set(series) == {
            f"retries={r}" for r in packet_loss.RETRY_BUDGETS
        }
        for points in series.values():
            assert [x for x, _ in points] == list(packet_loss.LOSS_RATES)

    def test_manifest_covers_grid_and_round_trips(self, captured):
        import json

        _, manifest = captured
        cells = len(packet_loss.LOSS_RATES) * len(packet_loss.RETRY_BUDGETS)
        assert len(manifest["configs"]) == cells
        for entry in manifest["configs"]:
            assert entry["trials"] == MICRO.trials
            assert all(digest for digest in entry["trace_digests"])
        # The whole manifest survives a JSON round-trip untouched.
        assert json.loads(json.dumps(manifest)) == manifest


class TestCacheFreshnessSuite:
    @pytest.fixture(scope="class")
    def results(self):
        return pinned(
            cache_freshness.run_suite(MICRO),
            "abfe331d57296d05599564adf887d5ec775088ce72ba43487e6695e682321bb3",
        )

    def test_ids(self, results):
        assert ids(results, "cache_freshness") == [
            "freshness_grid", "freshness_recovery",
        ]

    def test_grid_complete(self, results):
        assert [(row[0], row[1]) for row in results[0].rows] == [
            (fraction, mode)
            for mode in cache_freshness.MODES
            for fraction in cache_freshness.STORM_FRACTIONS
        ]


class TestGossipSearchSuite:
    @pytest.fixture(scope="class")
    def results(self):
        return pinned(
            gossip_search.run_suite(MICRO),
            "7d849a9f515cdcaf1cfc509b4701e9e1df20b297b423a0a3af5a6bb54c269ef2",
        )

    def test_ids(self, results):
        assert ids(results, "gossip_search") == [
            "gossip_compare", "gossip_faulty",
        ]

    def test_only_simulated_rows_report_cache_health(self, results):
        for label, *_, dead, live in results[0].rows:
            assert (dead == "-") == (live == "-") == (
                not label.startswith("guess")
            )


class TestAblationsSuite:
    @pytest.fixture(scope="class")
    def captured(self):
        """Suite results plus the manifest its run records."""
        recorder = ManifestRecorder()
        with activated(recorder):
            results = ablations.run_suite(MICRO)
        manifest = recorder.build(
            profile=MICRO.name,
            suites=["ablations"],
            workers=1,
            wall_clock_seconds=0.0,
        )
        return results, manifest

    @pytest.fixture(scope="class")
    def results(self, captured):
        return pinned(
            captured[0],
            "5c603a8e39f4e8ee6bf10a8cf72c80d5328a553f55f276648dd9e11cd2de31f2",
        )

    def test_manifest_holds_the_sweeps_only_and_verifies(self, captured):
        # A manifest entry is a promise that re-running its TrialSpec
        # reproduces its digests.  The three in-process ablations
        # (adaptive-search, detection, selfish) are not TrialSpecs, so they
        # record nothing rather than an entry that replays something else.
        _, manifest = captured
        sweeps = (
            len(ablations.PARALLEL_WALKERS)
            + 2  # DoBackoff off / on
            + len(ablations.PONG_SIZES)
            + len(ablations.INTRO_PROBS)
        )
        assert len(manifest["configs"]) == sweeps == 13
        assert verify_manifest(manifest) == []

    def test_ids(self, results):
        assert ids(results, "ablations") == [
            "ablation-parallel",
            "ablation-backoff",
            "ablation-adaptive-search",
            "ablation-detection",
            "ablation-selfish",
            "ablation-pongsize",
            "ablation-introprob",
        ]
