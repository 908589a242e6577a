"""Configuration runner shared by all experiment modules.

:func:`run_guess_config` runs one (SystemParams, ProtocolParams)
configuration for ``trials`` seeded repetitions and returns the reports;
:func:`averaged` folds an attribute across them.  Experiments compose
these into sweeps and package the output as
:class:`ExperimentResult` records that the CLI renders;
:func:`suite_main` is the module CLI every stand-alone suite shares.

Trials are independent seeded runs, so ``workers=N`` (or an explicit
:class:`~repro.experiments.executor.TrialExecutor`) fans them out over a
process pool.  Seeds derive in the parent before dispatch and reports
come back in trial order, so parallel output is byte-identical to
serial output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.errors import TrialFailure
from repro.experiments.executor import (
    ChaosSpec,
    TrialExecutor,
    TrialSpec,
    build_simulation,
    get_executor,
)
from repro.experiments.profiles import PROFILES, get_profile
from repro.metrics.collectors import SimulationReport
from repro.metrics.summary import mean
from repro.observe.manifest import active_manifest_recorder
from repro.reporting.series import format_series_block
from repro.reporting.tables import format_table
from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class ExperimentResult:
    """One regenerated table or figure.

    Attributes:
        experiment_id: e.g. ``"fig4"`` or ``"table3"``.
        title: paper caption paraphrase.
        columns: column labels when the result is tabular.
        rows: table rows (empty when the result is purely series).
        series: named x/y series when the result is a figure.
        x_label: x-axis label for the series block.
        notes: qualitative claim(s) this result should exhibit.
    """

    experiment_id: str
    title: str
    columns: Tuple[str, ...] = ()
    rows: Tuple[tuple, ...] = ()
    series: Dict[str, Sequence[Tuple[float, float]]] = field(
        default_factory=dict
    )
    x_label: str = "x"
    notes: str = ""

    def render(self) -> str:
        """Plain-text rendering (table, series block, or both)."""
        parts: List[str] = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.columns, self.rows))
        if self.series:
            parts.append(
                format_series_block(self.series, x_label=self.x_label)
            )
        if self.notes:
            parts.append(f"expected shape: {self.notes}")
        return "\n".join(parts)


def run_guess_config(
    system: SystemParams,
    protocol: ProtocolParams,
    *,
    duration: float,
    warmup: float,
    trials: int = 1,
    base_seed: int = 0,
    mutate: Optional[Callable[[GuessSimulation], None]] = None,
    workers: int = 1,
    executor: Optional[TrialExecutor] = None,
    trace_hash: bool = False,
    chaos: Optional[Mapping[int, ChaosSpec]] = None,
    **spec_fields: Any,
) -> List[SimulationReport]:
    """Run one configuration ``trials`` times with derived seeds.

    Args:
        system / protocol: the configuration.
        duration: measured seconds (simulation runs warmup + duration).
        warmup: seconds before metrics collection starts.
        trials: number of independent seeded runs.
        base_seed: trial seeds derive from this (stable across sweeps).
        mutate: optional hook called with each simulation before running
            (used by extension analyses to instrument internals).  A
            mutate hook pins execution to this process — it pokes at live
            simulation objects, which cannot cross a process boundary —
            so it composes with ``workers``/``executor`` by ignoring them.
        workers: trial-level parallelism; ``workers=N`` runs trials on N
            worker processes (0 = one per CPU).  Reports are identical to
            ``workers=1`` and arrive in the same (trial) order.
        executor: run trials on this executor instead of building one
            from ``workers`` (suites reuse one pool across a whole sweep).
        trace_hash: fold every trial's event stream into a trace digest
            (:attr:`SimulationReport.trace_digest`).  Forced on while a
            manifest recorder is active, so every recorded configuration
            carries per-trial digests that
            :func:`~repro.observe.manifest.replay_config` can verify bit
            for bit.
        chaos: optional ``{trial index: ChaosSpec}`` crash injection for
            supervisor drills — the chosen trials sabotage themselves in
            the worker before their simulation is built.  Ignored on the
            ``mutate`` path (which runs in-process, where an injected
            ``os._exit`` would kill the parent).
        **spec_fields: any other :class:`TrialSpec` field by name
            (``keep_queries``, ``health_sample_interval``, ``faults`` and
            the optional plans), applied to every trial and recorded in
            the manifest; the spec's docstring describes each one, and a
            name it does not declare is a ``TypeError``.

    Returns:
        One report per trial, in trial order.  Under a supervised
        executor a trial that exhausted every retry is represented by a
        :class:`~repro.errors.TrialFailure` in its slot.
    """
    recorder = active_manifest_recorder()
    template = TrialSpec(
        system=system,
        protocol=protocol,
        duration=duration,
        warmup=warmup,
        seed=0,
        trace_hash=trace_hash or recorder is not None,
        **spec_fields,
    )
    specs = [
        replace(
            template,
            seed=derive_seed(base_seed, f"trial:{trial}"),
            chaos=chaos.get(trial) if chaos is not None else None,
        )
        for trial in range(trials)
    ]
    if mutate is not None:
        reports: List[SimulationReport] = []
        for spec in specs:
            sim = build_simulation(spec)
            mutate(sim)
            sim.run(warmup + duration)
            reports.append(sim.report())
    elif executor is not None:
        reports = executor.run_trials(specs)
    else:
        with get_executor(workers) as owned:
            reports = owned.run_trials(specs)
    if recorder is not None:
        recorder.record_config(
            template,
            trials=trials,
            base_seed=base_seed,
            seeds=[spec.seed for spec in specs],
            digests=[report.trace_digest for report in reports],
        )
    return reports


def averaged(
    reports: Sequence[SimulationReport], metric: str
) -> float:
    """Mean of a report property (by name) across trials.

    Quarantined trials (:class:`~repro.errors.TrialFailure` slots left
    by supervised execution) are excluded: the mean is over the trials
    that produced reports, so one failed trial degrades a cell's sample
    size instead of aborting the sweep.
    """
    return mean([
        getattr(report, metric)
        for report in reports
        if not isinstance(report, TrialFailure)
    ])


def _render(results: List[ExperimentResult]) -> str:
    return "\n\n".join(result.render() for result in results)


def suite_main(
    run_suite: Callable[..., List[ExperimentResult]],
    description: str,
    argv: Optional[List[str]] = None,
) -> int:
    """The module CLI shared by the stand-alone suites.

    ``run_suite(profile, workers=N)`` is the suite's entry point.
    ``--verify-parallel`` runs it serially and on ``--workers``
    processes and fails unless the rendered reports are byte-identical
    (the serial-vs-parallel determinism check the ``suite-smoke`` CI job
    runs).  Returns an exit code.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--profile",
        default="smoke",
        choices=sorted(PROFILES),
        help="scale profile (default: smoke)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="trial-level parallelism (0 = one per CPU, default: serial)",
    )
    parser.add_argument(
        "--verify-parallel",
        action="store_true",
        help=(
            "run the suite serially AND on --workers processes and fail "
            "unless the rendered reports are byte-identical"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the rendered results to this file",
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    profile = get_profile(args.profile)

    if args.verify_parallel:
        if args.workers == 1:
            parser.error("--verify-parallel needs --workers N (N != 1)")
        serial = _render(run_suite(profile, workers=1))
        parallel = _render(run_suite(profile, workers=args.workers))
        if serial != parallel:
            print("FAIL: serial and parallel reports differ", file=sys.stderr)
            return 1
        print(f"serial == workers={args.workers}: reports byte-identical")
        text = serial
    else:
        text = _render(run_suite(profile, workers=args.workers))

    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0
