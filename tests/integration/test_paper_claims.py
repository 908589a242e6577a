"""The paper's qualitative claims, one test per row of ``claims.CLAIMS``.

Every distinct run the rows read (a seeded config, or a suite at the
``BENCH`` profile) runs once, as one batch on a pool of
``min(2, cpu_count)`` workers, and every row judges its predicate on
each of its seeds.  The checks are *shapes* (orderings, collapses,
robustness), not absolute numbers, which depend on the measured traces
the paper used.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.executor import ProcessTrialExecutor
from tests.integration import claims

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


class ClaimFails(AssertionError):
    """A row fails on exactly the seeds its caveat records."""


@pytest.fixture(scope="module")
def produced():
    keys = claims.all_runs(claims.CLAIMS)
    with ProcessTrialExecutor(min(2, os.cpu_count() or 1)) as executor:
        return dict(zip(keys, executor.map(claims.produce, keys)))


@pytest.mark.parametrize(
    "claim",
    [
        pytest.param(
            claim,
            id=claim.name,
            marks=[
                pytest.mark.xfail(strict=True, raises=ClaimFails, reason=claim.caveat)
            ] if claim.caveat else [],
        )
        for claim in claims.CLAIMS
    ],
)
def test_claim(claim, produced):
    failing = claim.failing_seeds(produced)
    assert failing in ((), claim.fails_on), f"fails on seeds {failing}"
    if failing:
        raise ClaimFails(f"fails on seeds {failing}: {claim.caveat}")


def test_each_config_is_declared_once():
    # Two names for one config would run it twice.
    specs = list(claims.CONFIGS.values())
    assert all(a != b for i, a in enumerate(specs) for b in specs[i + 1:])


def test_every_caveat_names_its_failing_seeds():
    for claim in claims.CLAIMS:
        assert bool(claim.caveat) == bool(claim.fails_on), claim.name
        assert set(claim.fails_on) <= set(claim.samples), claim.name


def test_verdict_table_is_rendered_from_the_rows():
    assert claims.verdict_table() in EXPERIMENTS.read_text(encoding="utf-8")
