"""The sweep runner shared by all experiment modules.

A suite is data: a ``{key: Cell}`` mapping (each :class:`Cell` a seedless
:class:`~repro.experiments.executor.TrialSpec` template, a base seed and
a trial count) plus a ``{column: metric}`` mapping.  :func:`run_cells`
runs every trial of every cell as **one** executor batch,
:func:`run_sweep` folds the reports to ``{key: {column: value}}``, and
:func:`grid_table` / :func:`grid_curves` package that as the
:class:`ExperimentResult` records ``run_all`` renders.
:func:`run_guess_config` is the one-cell call of the same runner.

Trials are independent seeded runs.  Seeds derive in the parent before
dispatch (``derive_seed(base_seed, "trial:i")``, whatever else is in
the batch) and reports come back in (cell, trial) order, so a sweep on a
process pool is byte-identical to a serial one — and because the whole
grid is one batch, the pool has work even when every cell has one trial.
The check of that promise is the manifest's: every trial a sweep runs is
recorded, and ``python -m repro.observe.manifest M --workers 2`` replays
a serial run's trials on a pool and compares each report's fingerprint.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.params import ProtocolParams, SystemParams
from repro.errors import TrialFailure
from repro.experiments.executor import (
    SerialTrialExecutor,
    TrialExecutor,
    TrialSpec,
    get_executor,
)
from repro.experiments.profiles import Profile
from repro.metrics.collectors import SimulationReport
from repro.metrics.summary import mean
from repro.observe.manifest import active_manifest_recorder
from repro.reporting.series import format_series_block
from repro.reporting.tables import format_table
from repro.sim.rng import derive_seed

#: A metric is a report property averaged across trials (by name) or a
#: function of the cell's completed reports.
Metric = Union[str, Callable[[Sequence[SimulationReport]], Any]]


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


@dataclass(frozen=True)
class Cell:
    """One cell of a sweep: a configuration run ``trials`` times.

    Attributes:
        spec: the seedless trial template (its ``seed`` is a
            placeholder; every other field applies to each trial).
        base_seed: trial ``i`` runs at ``derive_seed(base_seed,
            f"trial:{i}")`` — stable whatever else the sweep holds.
        trials: number of independent seeded runs.
    """

    spec: TrialSpec
    base_seed: int
    trials: int

    @classmethod
    def at(
        cls,
        profile: Profile,
        system: SystemParams,
        protocol: ProtocolParams,
        base_seed: int,
        *,
        trials: Optional[int] = None,
        **spec_fields: Any,
    ) -> "Cell":
        """A cell at the profile's duration, warmup and trial count.

        ``trials`` overrides the profile's count; ``spec_fields`` are any
        other :class:`TrialSpec` fields (``faults``, ``scenarios``, ...).
        """
        spec = TrialSpec(
            system, protocol, profile.duration, profile.warmup, seed=0,
            **spec_fields,
        )
        return cls(spec, base_seed, profile.trials if trials is None else trials)


def run_cells(
    cells: Mapping[Hashable, Cell],
    executor: Optional[TrialExecutor] = None,
) -> Dict[Hashable, list]:
    """Run every trial of every cell as one batch.

    The grid is flattened in (cell, trial) order into a single
    ``executor.run_trials`` call (serial when ``executor`` is omitted),
    the reports are cut back per cell, and each cell is recorded into
    the active manifest in cell order, exactly as if it had run alone.

    Returns:
        ``{key: reports}`` in trial order.  Under a supervised executor
        a quarantined trial's slot holds a
        :class:`~repro.errors.TrialFailure` (whose ``index`` is the
        position in the flattened batch).
    """
    recorder = active_manifest_recorder()
    hashed = recorder is not None
    templates = [
        replace(swept.spec, trace_hash=swept.spec.trace_hash or hashed)
        for swept in cells.values()
    ]
    batch = [
        replace(template, seed=derive_seed(swept.base_seed, f"trial:{trial}"))
        for template, swept in zip(templates, cells.values())
        for trial in range(swept.trials)
    ]
    reports = (executor or SerialTrialExecutor()).run_trials(batch)
    results: Dict[Hashable, list] = {}
    done = 0
    for (key, swept), template in zip(cells.items(), templates):
        span = slice(done, done + swept.trials)
        done += swept.trials
        results[key] = reports[span]
        if recorder is not None:
            recorder.record_config(
                template,
                trials=swept.trials,
                base_seed=swept.base_seed,
                seeds=[spec.seed for spec in batch[span]],
                reports=reports[span],
            )
    return results


def run_sweep(
    cells: Mapping[Hashable, Cell],
    metrics: Mapping[str, Metric],
    executor: Optional[TrialExecutor] = None,
) -> Dict[Hashable, Dict[str, Any]]:
    """Run a sweep and fold it: ``{key: {column: value}}`` in cell order.

    Quarantined trials (:class:`~repro.errors.TrialFailure` slots left
    by supervised execution) are dropped before anything folds them, so
    a failed trial degrades its cell's sample size instead of aborting
    the sweep; function-valued metrics see completed reports only.
    """
    folded: Dict[Hashable, Dict[str, Any]] = {}
    for key, reports in run_cells(cells, executor).items():
        completed = [r for r in reports if not isinstance(r, TrialFailure)]
        folded[key] = {
            column: (
                metric(completed)
                if callable(metric)
                else averaged(completed, metric)
            )
            for column, metric in metrics.items()
        }
    return folded


def grid_table(
    experiment_id: str,
    title: str,
    key_columns: Sequence[str],
    measured: Mapping[Hashable, Mapping[str, Any]],
    notes: str,
) -> ExperimentResult:
    """A swept grid as a table: key columns, then one column per metric."""
    rows = tuple(
        (key if isinstance(key, tuple) else (key,)) + tuple(values.values())
        for key, values in measured.items()
    )
    metric_columns = tuple(next(iter(measured.values()), {}))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        columns=tuple(key_columns) + metric_columns,
        rows=rows,
        notes=notes,
    )


def grid_curves(
    experiment_id: str,
    title: str,
    measured: Mapping[Tuple[Any, Any], Mapping[str, Any]],
    column: str,
    *,
    label: str,
    x_label: str,
    notes: str,
) -> ExperimentResult:
    """One metric of an (x, curve) grid: a curve per second-axis value.

    ``label`` formats the curve's name from its second-axis value.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for (x, curve), values in measured.items():
        series.setdefault(label.format(curve), []).append((x, values[column]))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        series=series,
        x_label=x_label,
        notes=notes,
    )


def run_guess_config(
    system: SystemParams,
    protocol: ProtocolParams,
    *,
    duration: float,
    warmup: float,
    trials: int = 1,
    base_seed: int = 0,
    workers: int = 1,
    executor: Optional[TrialExecutor] = None,
    trace_hash: bool = False,
    **spec_fields: Any,
) -> List[SimulationReport]:
    """Run one configuration ``trials`` times with derived seeds.

    Args:
        system / protocol: the configuration.
        duration: measured seconds (simulation runs warmup + duration).
        warmup: seconds before metrics collection starts.
        trials: number of independent seeded runs.
        base_seed: trial seeds derive from this (stable across sweeps).
        workers: trial-level parallelism; ``workers=N`` runs trials on N
            worker processes (0 = one per CPU).  Reports are identical to
            ``workers=1`` and arrive in the same (trial) order.
        executor: run trials on this executor instead of building one
            from ``workers`` (suites reuse one pool across a whole sweep).
        trace_hash: fold every trial's event stream into a trace digest
            (:attr:`SimulationReport.trace_digest`).  Forced on while a
            manifest recorder is active, so every recorded configuration
            carries per-trial digests that
            :func:`~repro.observe.manifest.verify_manifest` can verify bit
            for bit.
        **spec_fields: any other :class:`TrialSpec` field by name
            (``faults``, ``satisfaction_window`` and the optional plans),
            applied to every trial and recorded in the manifest; the
            spec's docstring describes each one, and a name it does not
            declare is a ``TypeError``.

    Returns:
        One report per trial, in trial order.  Under a supervised
        executor a trial that exhausted every retry is represented by a
        :class:`~repro.errors.TrialFailure` in its slot.
    """
    spec = TrialSpec(
        system, protocol, duration, warmup, seed=0, trace_hash=trace_hash,
        **spec_fields,
    )
    cells = {None: Cell(spec, base_seed, trials)}
    owned = get_executor(workers) if executor is None else nullcontext(executor)
    with owned as running:
        return run_cells(cells, running)[None]


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
