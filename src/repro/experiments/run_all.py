"""CLI: regenerate every table and figure.

Usage::

    python -m repro.experiments.run_all --profile quick
    python -m repro.experiments.run_all --profile smoke --only fig8 fig13
    python -m repro.experiments.run_all --only packet_loss --workers 2
    python -m repro.experiments.run_all --workers 2 --supervise
    python -m repro.experiments.run_all --workers 2 --resume supervise.d
    repro-experiments --profile full --output results.txt

``--only`` takes experiment ids or suite names — :data:`SUITES` is the
one table of both, and ``--help`` lists it.

Serial and parallel runs are checked against each other through the
manifest: ``python -m repro.observe.manifest manifest.json --workers 2``
replays a run's every trial on two worker processes and compares each
report's trace digest and fingerprint with the recorded ones.

``--supervise`` runs every trial under
:class:`~repro.experiments.supervisor.SupervisedTrialExecutor`:
crashed/hung workers are retried (``--max-attempts``, ``--trial-timeout``),
trials that fail every attempt are quarantined instead of aborting the
sweep, each completed trial is checkpointed to
``<checkpoint dir>/trials.journal.jsonl`` as it finishes, and SIGINT
drains in-flight trials, flushes partial outputs plus a partial
manifest, and exits 130.  ``--resume DIR`` (implies ``--supervise``)
verifies the journal against the partial manifest and re-runs only
missing/failed trials — the resumed output is byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    ablations,
    cache_freshness,
    cache_size,
    capacity,
    churn_storm,
    fairness,
    flexible_extent,
    gossip_search,
    malicious,
    packet_loss,
    ping_interval,
    policy_comparison,
)
from repro.experiments.executor import get_executor
from repro.experiments.profiles import PROFILES, get_profile
from repro.experiments.runner import ExperimentResult
from repro.experiments.supervisor import (
    JOURNAL_FILENAME,
    PARTIAL_MANIFEST_FILENAME,
    SupervisedTrialExecutor,
    SweepInterrupted,
    verify_journal_against_manifest,
)
from repro.observe.manifest import (
    ManifestRecorder,
    load_manifest,
    write_manifest,
)
from repro.observe.manifest import activated as manifest_activated
from repro.observe.profiler import Profiler
from repro.observe.profiler import activated as profiler_activated

#: The one registry: suite name -> (runner, the experiment ids its
#: results carry, in order).  Adding a suite is one row here.
SUITES: Dict[str, Tuple[Callable, Tuple[str, ...]]] = {
    "cache_size": (cache_size.run_suite, ("table3", "fig3", "fig4", "fig5")),
    "ping_interval": (ping_interval.run_suite, ("fig6", "fig7")),
    "flexible_extent": (flexible_extent.run_suite, ("fig8",)),
    "policy_comparison": (
        policy_comparison.run_suite, ("fig9", "fig10", "fig11", "fig12"),
    ),
    "fairness": (fairness.run_suite, ("fig13",)),
    "capacity": (capacity.run_suite, ("fig14", "fig15")),
    "malicious": (
        malicious.run_suite,
        ("fig16", "fig17", "fig18", "fig19", "fig20", "fig21"),
    ),
    "ablations": (
        ablations.run_suite,
        (
            "ablation-parallel",
            "ablation-backoff",
            "ablation-adaptive-search",
            "ablation-detection",
            "ablation-selfish",
            "ablation-pongsize",
            "ablation-introprob",
        ),
    ),
    "packet_loss": (packet_loss.run_suite, ("loss_grid", "loss_satisfaction")),
    "churn_storm": (churn_storm.run_suite, ("storm_grid", "storm_recovery")),
    "gossip_search": (
        gossip_search.run_suite, ("gossip_compare", "gossip_faulty"),
    ),
    "cache_freshness": (
        cache_freshness.run_suite, ("freshness_grid", "freshness_recovery"),
    ),
}

#: Experiment id -> the suite that produces it.
EXPERIMENT_SUITE: Dict[str, str] = {
    experiment_id: suite
    for suite, (_, experiment_ids) in SUITES.items()
    for experiment_id in experiment_ids
}

#: Exit codes beyond 0/1: quarantines happened (sweep completed but some
#: trials failed every retry) and interrupted-but-resumable.
EXIT_QUARANTINED = 3
EXIT_INTERRUPTED = 130


def resolve_suites(only: List[str] | None) -> List[str]:
    """Map ``--only`` tokens (ids or suite names) to a suite list.

    Raises:
        SystemExit: on an unknown token (argparse-style error).
    """
    if not only:
        return list(SUITES)
    picked: List[str] = []
    for token in only:
        if token in SUITES:
            suite = token
        elif token in EXPERIMENT_SUITE:
            suite = EXPERIMENT_SUITE[token]
        else:
            known = sorted(set(SUITES) | set(EXPERIMENT_SUITE))
            raise SystemExit(f"unknown experiment {token!r}; known: {known}")
        if suite not in picked:
            picked.append(suite)
    return picked


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (shared with tests)."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "--profile",
        default="quick",
        choices=sorted(PROFILES),
        help="scale profile (default: quick)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="ID",
        help=(
            "experiment ids or suite names to run (default: everything): "
            + "; ".join(
                f"{suite} = {' '.join(ids)}"
                for suite, (_, ids) in SUITES.items()
            )
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the rendered results to this file",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run each sweep's trials — every cell of the grid, as one "
            "batch — on N worker processes (0 = one per CPU, default: "
            "1 = serial); results are byte-identical to a serial run: "
            "seeds derive per trial before dispatch and reports return "
            "in (cell, trial) order"
        ),
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help=(
            "run trials under the supervisor: retry crashed/hung workers, "
            "quarantine trials that fail every attempt, checkpoint each "
            "completed trial to the journal, and drain gracefully on "
            "SIGINT (results stay byte-identical to an unsupervised run)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "resume an interrupted --supervise run from its checkpoint "
            "directory: verify the journal against the partial manifest, "
            "re-run only missing/failed trials (implies --supervise)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default="supervise.d",
        metavar="DIR",
        help=(
            "where --supervise keeps its journal and partial manifest "
            "(default: supervise.d; ignored when --resume names a dir)"
        ),
    )
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "supervised watchdog: kill and retry any trial attempt that "
            "produces no result within SECONDS (default: no watchdog)"
        ),
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help=(
            "supervised retry budget: failed attempts tolerated per "
            "trial before it is quarantined (default: 3)"
        ),
    )
    parser.add_argument(
        "--profile-report",
        action="store_true",
        help=(
            "append a per-suite profiling table (wall seconds, engine "
            "events/s, simulated-seconds/s) to the output"
        ),
    )
    parser.add_argument(
        "--manifest",
        default="manifest.json",
        metavar="PATH",
        help=(
            "write a reproducibility manifest (params, fault plans, "
            "derived seeds, per-trial trace digests and report "
            "fingerprints, package version) to "
            "PATH (default: manifest.json); verify it later with "
            "'python -m repro.observe.manifest PATH'"
        ),
    )
    parser.add_argument(
        "--no-manifest",
        action="store_true",
        help="skip writing the manifest (also skips per-trial trace hashing)",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.max_attempts < 1:
        parser.error(f"--max-attempts must be >= 1, got {args.max_attempts}")

    profile = get_profile(args.profile)
    suites = resolve_suites(args.only)

    supervise = args.supervise or args.resume is not None
    checkpoint_dir = args.resume or args.checkpoint_dir
    supervised: Optional[SupervisedTrialExecutor] = None
    if supervise:
        os.makedirs(checkpoint_dir, exist_ok=True)
        resuming = args.resume is not None
        supervised = SupervisedTrialExecutor(
            workers=args.workers,
            trial_timeout=args.trial_timeout,
            max_attempts=args.max_attempts,
            journal=os.path.join(checkpoint_dir, JOURNAL_FILENAME),
            resume=resuming,
        )
        if resuming:
            partial = os.path.join(checkpoint_dir, PARTIAL_MANIFEST_FILENAME)
            if os.path.exists(partial):
                problems = verify_journal_against_manifest(
                    supervised.journal, load_manifest(partial)
                )
                if problems:
                    for problem in problems:
                        print(problem, file=sys.stderr)
                    print(
                        "refusing to resume: journal contradicts the "
                        "partial manifest",
                        file=sys.stderr,
                    )
                    supervised.close()
                    return 2
            journaled = len(supervised.journal)
            print(
                f"resuming from {checkpoint_dir}: "
                f"{journaled} trial(s) already journaled"
            )

    blocks: List[str] = [
        f"GUESS reproduction — profile={profile.name} "
        f"(duration={profile.duration:.0f}s, warmup={profile.warmup:.0f}s, "
        f"trials={profile.trials}, workers={args.workers})"
    ]
    recorder = None if args.no_manifest else ManifestRecorder()
    # The one clock of a run: each suite is a phase, and the headers, the
    # wall-clock summary and the manifest read their seconds from it.
    profiler = Profiler()
    interrupted = False
    with ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(manifest_activated(recorder))
        stack.enter_context(profiler_activated(profiler))
        executor = supervised
        if supervised is None:
            # One pool for the whole run, shared by every suite.
            executor = stack.enter_context(get_executor(args.workers))
        else:
            stack.callback(supervised.close)
            # Graceful SIGINT: first ^C drains in-flight trials (each is
            # journaled as it lands) and flushes partial outputs; a
            # second ^C aborts hard through the default KeyboardInterrupt
            # path.  Restored on exit from the stack.
            previous = signal.getsignal(signal.SIGINT)

            def _on_sigint(signum, frame):
                if supervised.stop_requested:
                    raise KeyboardInterrupt
                supervised.request_stop()
                print(
                    "\nSIGINT: draining in-flight trials, flushing the "
                    "journal (^C again to abort hard)",
                    file=sys.stderr,
                )

            signal.signal(signal.SIGINT, _on_sigint)
            stack.callback(signal.signal, signal.SIGINT, previous)
        for suite_name in suites:
            if supervised is not None and supervised.stop_requested:
                interrupted = True
                break
            try:
                with profiler.phase(suite_name):
                    run_suite = SUITES[suite_name][0]
                    results: List[ExperimentResult] = run_suite(
                        profile, executor
                    )
            except SweepInterrupted:
                interrupted = True
                blocks.append(
                    f"-- suite {suite_name} interrupted after "
                    f"{profiler.wall_seconds(suite_name):.1f}s "
                    "(completed trials journaled) --"
                )
                break
            blocks.append(
                f"-- suite {suite_name} "
                f"({profiler.wall_seconds(suite_name):.1f}s) --"
            )
            for result in results:
                blocks.append(result.render())
    total = sum(profiler.wall_seconds(name) for name in profiler.phases)
    summary = ["-- wall-clock summary --"]
    for suite_name in profiler.phases:
        elapsed = profiler.wall_seconds(suite_name)
        share = 100.0 * elapsed / total if total > 0 else 0.0
        summary.append(f"{suite_name:<20} {elapsed:9.1f}s  ({share:4.1f}%)")
    summary.append(
        f"{'total wall time':<20} {total:9.1f}s  (workers={args.workers})"
    )
    blocks.append("\n".join(summary))
    if args.profile_report:
        blocks.append(profiler.render())
    if supervised is not None and supervised.failures:
        quarantine = ["-- quarantined trials --"]
        quarantine.extend(str(failure) for failure in supervised.failures)
        quarantine.append("(quarantined trials are re-run on --resume)")
        blocks.append("\n".join(quarantine))
    if interrupted:
        blocks.append(
            "** interrupted — resume with: python -m "
            f"repro.experiments.run_all --resume {checkpoint_dir} "
            "(plus your original flags) **"
        )

    text = "\n\n".join(blocks)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if args.resume is not None:
        ignored = len(supervised.journal.unmatched)
        print(
            f"resumed from {checkpoint_dir}: {journaled - ignored} journaled "
            f"trial(s) reused, {ignored} matched no trial of this run and "
            "were ignored (other flags, or a journal from another version?)"
        )
    if recorder is not None:
        manifest = recorder.build(
            profile=profile.name,
            suites=suites,
            workers=args.workers,
            wall_clock_seconds=total,
            command=["python", "-m", "repro.experiments.run_all"]
            + list(argv if argv is not None else sys.argv[1:]),
        )
        if interrupted:
            partial = os.path.join(checkpoint_dir, PARTIAL_MANIFEST_FILENAME)
            write_manifest(partial, manifest)
            print(f"partial manifest written to {partial}")
        else:
            write_manifest(args.manifest, manifest)
            print(f"manifest written to {args.manifest}")
    if interrupted:
        return EXIT_INTERRUPTED
    if supervised is not None and supervised.failures:
        return EXIT_QUARANTINED
    return 0


if __name__ == "__main__":
    sys.exit(main())
