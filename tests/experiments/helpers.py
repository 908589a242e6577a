"""Shared scaffolding for the experiment-suite tests."""

from __future__ import annotations

from hashlib import sha256

from repro.experiments.profiles import Profile
from repro.experiments.runner import ExperimentResult

#: Far below the ``smoke`` registry profile: a whole suite in about a second.
MICRO = Profile(
    name="micro",
    duration=120.0,
    warmup=30.0,
    trials=1,
    network_sizes=(60,),
    reference_size=60,
    cache_sizes=(5, 20),
    ping_intervals=(15.0, 120.0),
    baseline_queries=60,
    max_extent=60,
)


def pinned(results, digest: str):
    """``results``, once their rendered text hashes to ``digest``.

    The literals were recorded at commit 00c8cce, before the suites were
    re-expressed as cells and metrics: a refactor of the harness must
    leave every rendered byte where it was.  ``results`` is one
    :class:`~repro.experiments.runner.ExperimentResult` or a list.
    """
    rendered = "\n\n".join(
        result.render()
        for result in (results if isinstance(results, list) else [results])
    )
    assert sha256(rendered.encode("utf-8")).hexdigest() == digest
    return results


def canned_suite(experiment_id: str, title: str | None = None):
    """A ``run_suite`` stand-in for the module-CLI tests.

    It hands its executor a two-item batch (so a process pool has to
    start) and returns one canned result; without a fixed ``title`` the
    result names the executor's worker count, so a serial and a parallel
    run render differently.
    """

    def run_suite(profile, executor=None):
        if executor is not None:
            executor.map(abs, [-1, -2])
        workers = getattr(executor, "workers", 1)
        return [
            ExperimentResult(
                experiment_id=experiment_id,
                title=title or f"canned workers={workers}",
                columns=("A",),
                rows=((1.0,),),
            )
        ]

    return run_suite
