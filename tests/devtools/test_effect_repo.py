"""Whole-repo effect self-check: the contracts hold, and every escape
hatch is load-bearing.

The first test is the static proof itself: RD006-RD010 over ``src/``
with the committed contracts and baseline produce zero findings.  The
rest demonstrate that each suppression is *necessary* — removing any one
pragma, baseline entry, or contract exemption makes the run fail — so
the escape hatches cannot silently rot into dead weight.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.devtools.effects import analyze_paths
from repro.devtools.effects.callgraph import build_program
from repro.devtools.effects.checker import check_effects
from repro.devtools.effects.contracts import (
    Baseline,
    BaselineEntry,
    load_baseline,
    load_contracts,
)
from repro.devtools.effects.driver import collect_sources
from repro.devtools.lint import main
from repro.devtools.linter import iter_python_files
from repro.devtools.rules import EFFECT_RULE_IDS

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def repo_sources():
    sources, errors = collect_sources(iter_python_files([SRC]))
    assert not errors
    assert len(sources) > 50, "source collection walked suspiciously few modules"
    return sources


def run_check(sources, contracts=None, baseline=None):
    program = build_program(dict(sources))
    return check_effects(
        program,
        contracts if contracts is not None else load_contracts(),
        baseline if baseline is not None else load_baseline(),
        set(EFFECT_RULE_IDS),
    )


def test_repository_satisfies_all_effect_contracts():
    result, program = analyze_paths(iter_python_files([SRC]))
    assert result.errors == [], result.errors
    assert result.violations == [], "\n".join(
        v.render() for v in result.violations
    )
    assert len(program.functions) > 400, "call graph looks truncated"


def test_removing_baseline_entries_fails_the_run(repo_sources):
    result = run_check(repo_sources, baseline=Baseline())
    rules = {v.rule.id for v in result.violations}
    # The committed baseline carries exactly the specs_for_entry seed
    # re-derivation, accepted under both RD006 and RD009.
    assert {"RD006", "RD009"} <= rules, "\n".join(
        v.render() for v in result.violations
    )


def test_stale_baseline_entry_is_an_error(repo_sources):
    baseline = load_baseline()
    baseline.entries.append(
        BaselineEntry("RD010", "repro.sim.engine.no_such_function", "bogus")
    )
    result = run_check(repo_sources, baseline=baseline)
    assert any("stale baseline entry" in e for e in result.errors)


@pytest.mark.parametrize(
    "relpath, pragma, rule_id",
    [
        ("repro/sim/engine.py", "allow-effect-kernel-io", "RD010"),
    ],
)
def test_removing_any_pragma_fails_the_run(repo_sources, relpath, pragma, rule_id):
    module = relpath[: -len(".py")].replace("/", ".")
    path, source = repo_sources[module]
    assert pragma in source, f"{relpath} no longer carries {pragma}"
    mutated = dict(repo_sources)
    mutated[module] = (path, source.replace(pragma, "allow-RD002"))
    result = run_check(mutated)
    assert rule_id in {v.rule.id for v in result.violations}, "\n".join(
        v.render() for v in result.violations
    )


def test_removing_replay_exemption_fails_the_run(repo_sources):
    contracts = []
    for contract in load_contracts():
        if contract.rule_id == "RD006":
            contract = dataclasses.replace(contract, exempt=())
        contracts.append(contract)
    result = run_check(repo_sources, contracts=contracts)
    rd006 = [v for v in result.violations if v.rule.id == "RD006"]
    assert rd006, "RD006 exemptions for manifest replay are load-bearing"


def test_effects_report_sees_every_random_index_draw(tmp_path):
    # ``randbelow`` draws through ``rng.getrandbits``; the caches make every
    # Random draw — a link cache's pong, ping target and contest (inline,
    # in ``admit``), a query cache's pop — and the paths into them carry
    # the draw.  A draw the table loses is one RD006 can no longer catch.
    report = tmp_path / "effects.tsv"
    argv = ["--rules", "RD006-RD010", "--effects-report", str(report), str(SRC)]
    assert main(argv) == 0
    effects = dict(
        line.split("\t")[:2]
        for line in report.read_text(encoding="utf-8").splitlines()[1:-1]
    )
    for qualname in (
        "repro.sim.rng.randbelow",
        "repro.core.link_cache.LinkCache.select_top",
        "repro.core.link_cache.LinkCache.select_best",
        "repro.core.link_cache.LinkCache.admit",
        "repro.core.link_cache.LinkCache.insert",
        "repro.core.query_cache.QueryCache.pop",
        "repro.core.peer.GuessPeer.make_pong",
        "repro.core.peer.GuessPeer.choose_ping_target",
        "repro.core.peer.GuessPeer.import_pong_to_link_cache",
        "repro.core.search.execute_query",
        "repro.core.network_sim.GuessSimulation._seed_from_friend",
    ):
        assert "RNG_DRAW" in effects.get(qualname, ""), qualname
    # The armed hops pick from addresses through a stored handler; the
    # table must still see each relay draw on its own stream and schedule
    # the next hop, or RD007 (``gossip:*`` / ``freshness:*`` only) proves
    # nothing about them.
    gossip, freshness = "repro.baselines.gossip.", "repro.freshness.mediator."
    for qualname, wanted in (
        (gossip + "GossipRelay._hop", "RNG_DRAW+SCHEDULE"),
        (gossip + "GossipRelay.seed_rumor", "SCHEDULE"),
        (gossip + "GossipRelay.pick_targets", "RNG_DRAW"),
        (freshness + "FreshnessMediator._hop", "RNG_DRAW+SCHEDULE"),
        (freshness + "FreshnessMediator.pick_contacts", "RNG_DRAW"),
    ):
        assert effects.get(qualname) == wanted, qualname
