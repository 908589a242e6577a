"""Supervised trial execution: watchdogs, crash retry, checkpoint/resume.

The plain :class:`~repro.experiments.executor.ProcessTrialExecutor`
treats the worker pool as infallible: one crashed worker poisons the
pool and aborts the whole batch, a hung worker stalls it forever, and a
killed sweep restarts from trial zero.  This module wraps the pool in a
*supervisor* that treats trials the way a training job treats workers —
individually expendable, collectively durable:

* **watchdog** — every in-flight trial carries a deadline
  (``trial_timeout`` seconds, enforced through
  :func:`concurrent.futures.wait` timeouts); a trial that blows its
  deadline has its worker pool killed and is retried;
* **crash retry** — a trial whose worker raises or dies
  (:class:`~concurrent.futures.process.BrokenProcessPool`) is retried,
  the pool respawned, up to ``max_attempts`` attempts;
* **quarantine** — a trial that fails every attempt is reported as a
  structured :class:`~repro.errors.TrialFailure` occupying its slot in
  the (spec-ordered) results, so sibling trials survive;
* **checkpoint journal** — each completed trial's pickled report and
  trace digest is appended to a JSONL journal keyed by a
  :func:`trial_fingerprint` of its spec, as it finishes; a resumed run
  loads the journal and re-runs only missing/failed trials
  (``run_all --supervise`` / ``--resume DIR``).

**Determinism contract (the headline guarantee).**  A sweep that
crashed N times and was resumed produces byte-identical reports and
trace digests to a one-shot serial run.  The supervisor can promise
this because it never *creates* work, only re-dispatches it: seeds are
derived pre-dispatch in the parent and frozen into each
:class:`~repro.experiments.executor.TrialSpec`, every retry resubmits
the spec verbatim, and results are slotted by spec index regardless of
completion order.  ``tests/experiments/test_supervisor.py`` pins all of
it, including the three golden digests run under supervision; its crash
drills (raise, exit, hang) wrap the trial function test-side and
sabotage an attempt before its simulation is built, so a surviving
attempt's report carries no scar tissue.

**Blame attribution.**  A raised exception or an expired deadline is
attributable to exactly one trial.  A broken pool is not: every
in-flight future fails at once.  The supervisor therefore blames a pool
break only when a single trial was in flight; otherwise it requeues all
victims blame-free into an *isolation* queue that runs them one at a
time, where the next break is attributable with certainty.  An innocent
trial can never be quarantined by a crashing neighbour.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

from repro.errors import ConfigError, ExecutionError, TrialFailure
from repro.experiments.executor import TrialExecutor, execute_trial, profiled_batch

#: Journal filename used by ``run_all --supervise`` inside its
#: checkpoint directory (gitignored via the ``*.journal.jsonl`` pattern).
JOURNAL_FILENAME = "trials.journal.jsonl"

#: Partial-manifest filename written on interrupt, verified on resume.
PARTIAL_MANIFEST_FILENAME = "manifest.partial.json"

#: Poll granularity for the dispatch loop: bounds both watchdog
#: precision and how long a stop request can go unnoticed.
_POLL_SECONDS = 0.5

#: Consecutive failed pool respawns tolerated before giving up.
_MAX_RESPAWN_FAILURES = 5

_MISS = object()
_PENDING = object()


class SweepInterrupted(ExecutionError):
    """A supervised sweep was stopped before every trial completed.

    Raised by :meth:`SupervisedTrialExecutor.map` after a stop request
    (typically SIGINT) once in-flight trials have drained and been
    journaled.  Completed work is safe in the journal; resume with
    ``run_all --resume DIR``.
    """


def trial_fingerprint(fn: Callable, item: Any) -> str:
    """Stable identity of one unit of work: hash of ``fn`` + ``repr(item)``.

    Valid for module-level functions applied to items with
    value-determined ``repr`` (frozen dataclasses of scalars, tuples of
    scalars — every spec type the experiment harness dispatches).  The
    fingerprint is what lets a resumed run recognise work it already
    did, so it must not depend on object identity, process, or time.
    """
    payload = f"{fn.__module__}.{fn.__qualname__}|{item!r}"
    return sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------


class TrialJournal:
    """Append-only JSONL checkpoint of completed (and quarantined) trials.

    One line per event, flushed and fsynced as it happens — a crash
    loses at most the trial that was being written:

    * ``{"kind": "report", "fingerprint": ..., "digest": ...,
      "payload": <base64 pickle of the report>}``
    * ``{"kind": "failure", "fingerprint": ..., "index": ...,
      "attempts": ..., "error": ..., "failure_kind": ...}``

    On ``resume=True`` existing ``report`` lines are loaded into the
    lookup cache (failures are *not* — a quarantined trial is re-run on
    resume); a torn final line from a mid-write crash is skipped.
    Without ``resume`` the file is truncated and started fresh.
    """

    def __init__(self, path, *, resume: bool = False) -> None:
        self.path = os.fspath(path)
        self._cache: Dict[str, Any] = {}
        self._digests: Dict[str, Optional[str]] = {}
        if resume:
            self._load()
        #: Fingerprints loaded on resume that no :meth:`lookup` has asked
        #: for: all of them, if the journal was written under other flags.
        self.unmatched = set(self._cache)
        self._handle = open(self.path, "a" if resume else "w",
                            encoding="utf-8")

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail write from a crash mid-append
                if entry.get("kind") != "report":
                    continue
                try:
                    report = pickle.loads(base64.b64decode(entry["payload"]))
                except Exception:
                    continue  # unreadable payload: treat as not done
                fingerprint = entry["fingerprint"]
                self._cache[fingerprint] = report
                self._digests[fingerprint] = entry.get("digest")

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def digests(self) -> Dict[str, Optional[str]]:
        """``fingerprint -> trace digest`` for every journaled report."""
        return dict(self._digests)

    def lookup(self, fingerprint: str) -> Any:
        """The journaled report for ``fingerprint``, or the miss sentinel."""
        self.unmatched.discard(fingerprint)
        return self._cache.get(fingerprint, _MISS)

    def _append(self, entry: dict) -> None:
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, fingerprint: str, report: Any) -> None:
        """Checkpoint one completed trial (report + digest)."""
        digest = getattr(report, "trace_digest", None)
        self._append({
            "kind": "report",
            "fingerprint": fingerprint,
            "digest": digest,
            "payload": base64.b64encode(pickle.dumps(report)).decode("ascii"),
        })
        self._cache[fingerprint] = report
        self._digests[fingerprint] = digest

    def record_failure(self, fingerprint: str, failure: TrialFailure) -> None:
        """Record a quarantine (informational; failures re-run on resume)."""
        self._append({
            "kind": "failure",
            "fingerprint": fingerprint,
            "index": failure.index,
            "attempts": failure.attempts,
            "error": failure.error,
            "failure_kind": failure.kind,
        })

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


@dataclass
class _Flight:
    """Bookkeeping for one in-flight future."""

    index: int
    deadline: Optional[float]


class SupervisedTrialExecutor(TrialExecutor):
    """A process-pool executor with watchdogs, retries, and a journal.

    Unlike :class:`~repro.experiments.executor.ProcessTrialExecutor`,
    *every* item runs in a worker process — even single-item batches —
    because crash isolation is the point: an ``os._exit`` or a hang must
    take down a worker, never the parent.  ``workers=1`` therefore still
    supervises (a pool of one), it just doesn't parallelise.

    Args:
        workers: pool size; ``None`` or 0 means ``os.cpu_count()``.
        trial_timeout: watchdog deadline in seconds per *attempt*;
            ``None`` disables the watchdog (crashes are still retried).
        max_attempts: failed attempts tolerated per trial before it is
            quarantined as a :class:`~repro.errors.TrialFailure`.
        journal: path of the JSONL checkpoint journal; ``None`` disables
            checkpointing (supervision still applies).
        resume: load an existing journal at ``journal`` and serve
            already-completed trials from it instead of re-running them.

    Attributes:
        failures: every :class:`TrialFailure` quarantined so far, in the
            order the quarantines happened (across batches).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        trial_timeout: Optional[float] = None,
        max_attempts: int = 3,
        journal=None,
        resume: bool = False,
    ) -> None:
        resolved = workers or os.cpu_count() or 1
        if resolved < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if trial_timeout is not None and trial_timeout <= 0:
            raise ConfigError(
                f"trial_timeout must be positive, got {trial_timeout}"
            )
        self.workers = int(resolved)
        self.trial_timeout = trial_timeout
        self.max_attempts = max_attempts
        self.failures: List[TrialFailure] = []
        self._journal = (
            TrialJournal(journal, resume=resume) if journal is not None
            else None
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._stop = False

    # -- lifecycle ------------------------------------------------------

    @property
    def journal(self) -> Optional[TrialJournal]:
        """The checkpoint journal, when checkpointing is enabled."""
        return self._journal

    @property
    def stop_requested(self) -> bool:
        """True once :meth:`request_stop` has been called."""
        return self._stop

    def request_stop(self) -> None:
        """Ask the dispatch loop to drain: finish (and journal) in-flight
        trials, submit nothing new, then raise :class:`SweepInterrupted`.

        Safe to call from a signal handler — it only sets a flag.
        """
        self._stop = True

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:  # broken pools shut down best-effort
                pass
        if self._journal is not None:
            self._journal.close()

    # -- pool management ------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _discard_pool(self) -> None:
        """Retire a broken pool; the next submit respawns a fresh one."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _kill_pool(self) -> None:
        """Forcibly terminate the pool's workers (watchdog path).

        A hung worker never returns on its own, so a plain shutdown
        would block forever; termination is the only way to reclaim the
        slot.  Reaches into ``_processes`` because
        :class:`ProcessPoolExecutor` exposes no kill switch.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                process.join(timeout=5.0)
            except Exception:
                pass

    # -- supervised dispatch --------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
    ) -> List[Any]:
        """Supervised, order-preserving ``fn`` over ``items``.

        Results come back in item order; a quarantined item's slot holds
        a :class:`TrialFailure` instead of a result.  Raises
        :class:`SweepInterrupted` if a stop request left items undone.
        """
        items = list(items)
        return profiled_batch(lambda: self._supervised(fn, items), len(items))

    def _supervised(self, fn: Callable, items: List[Any]) -> List[Any]:
        results: List[Any] = [_PENDING] * len(items)
        fingerprints: List[Optional[str]] = [None] * len(items)
        queue: Deque[int] = deque()
        for index, item in enumerate(items):
            if self._journal is not None:
                fingerprint = trial_fingerprint(fn, item)
                fingerprints[index] = fingerprint
                cached = self._journal.lookup(fingerprint)
                if cached is not _MISS:
                    results[index] = cached
                    continue
            queue.append(index)

        failed = [0] * len(items)
        isolation: Deque[int] = deque()
        inflight: Dict[Future, _Flight] = {}
        respawn_failures = 0

        def blame(index: int, error: str, kind: str,
                  requeue: Deque[int]) -> None:
            """Charge one failed attempt; requeue or quarantine."""
            failed[index] += 1
            if failed[index] >= self.max_attempts:
                failure = TrialFailure(
                    index=index,
                    attempts=failed[index],
                    error=error,
                    kind=kind,
                )
                results[index] = failure
                self.failures.append(failure)
                if self._journal is not None and fingerprints[index]:
                    self._journal.record_failure(
                        fingerprints[index], failure
                    )
            else:
                requeue.append(index)

        def submit(index: int) -> bool:
            nonlocal respawn_failures
            try:
                future = self._ensure_pool().submit(fn, items[index])
            except (BrokenProcessPool, RuntimeError):
                # The pool died between batches or while submitting.
                # Retire it and requeue; _ensure_pool respawns next time.
                self._discard_pool()
                isolation.appendleft(index)
                respawn_failures += 1
                if respawn_failures >= _MAX_RESPAWN_FAILURES:
                    raise ExecutionError(
                        "worker pool cannot be respawned "
                        f"({respawn_failures} consecutive submit failures)"
                    )
                return False
            respawn_failures = 0
            deadline = None
            if self.trial_timeout is not None:
                now = time.monotonic()  # repro: allow-wallclock (watchdog)
                deadline = now + self.trial_timeout
            inflight[future] = _Flight(index=index, deadline=deadline)
            return True

        while queue or isolation or inflight:
            # Submission.  Isolation runs strictly one at a time so the
            # next pool break is attributable; it drains before (and
            # blocks) the parallel queue.
            if not self._stop:
                if isolation:
                    if not inflight:
                        submit(isolation.popleft())
                else:
                    while queue and len(inflight) < self.workers:
                        if not submit(queue.popleft()):
                            break
            if not inflight:
                if self._stop:
                    break
                continue

            now = time.monotonic()  # repro: allow-wallclock (watchdog)
            wait_for = _POLL_SECONDS
            deadlines = [
                flight.deadline for flight in inflight.values()
                if flight.deadline is not None
            ]
            if deadlines:
                wait_for = max(0.0, min(wait_for, min(deadlines) - now))
            done, _ = futures_wait(
                set(inflight), timeout=wait_for,
                return_when=FIRST_COMPLETED,
            )

            broken: List[_Flight] = []
            for future in done:
                flight = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken.append(flight)
                except BaseException as exc:
                    # The worker raised: attributable with certainty.
                    blame(flight.index, repr(exc), "error", queue)
                else:
                    results[flight.index] = result
                    if (self._journal is not None
                            and fingerprints[flight.index] is not None):
                        self._journal.record(
                            fingerprints[flight.index], result
                        )
            if broken:
                # The pool is dead: every remaining in-flight future is
                # doomed with it.  Blame only if exactly one trial was
                # in flight; otherwise requeue all victims blame-free
                # into isolation, where reruns are attributable.
                victims = broken + list(inflight.values())
                inflight.clear()
                self._discard_pool()
                if len(victims) == 1:
                    blame(
                        victims[0].index,
                        "worker process died (BrokenProcessPool)",
                        "crash",
                        isolation,
                    )
                else:
                    for flight in victims:
                        isolation.append(flight.index)
                continue

            # Watchdog: deadlines are per-future, so expiry is
            # attributable even with siblings in flight — but reclaiming
            # the hung worker means killing the whole pool, so innocent
            # siblings are requeued blame-free.
            if self.trial_timeout is not None and inflight:
                now = time.monotonic()  # repro: allow-wallclock (watchdog)
                expired = [
                    flight for flight in inflight.values()
                    if flight.deadline is not None and flight.deadline <= now
                ]
                if expired:
                    survivors = [
                        flight for flight in inflight.values()
                        if flight not in expired
                    ]
                    inflight.clear()
                    self._kill_pool()
                    for flight in expired:
                        blame(
                            flight.index,
                            "watchdog: no result within "
                            f"{self.trial_timeout}s",
                            "timeout",
                            isolation,
                        )
                    for flight in survivors:
                        queue.appendleft(flight.index)

        if any(result is _PENDING for result in results):
            undone = sum(1 for result in results if result is _PENDING)
            raise SweepInterrupted(
                f"stop requested with {undone} of {len(items)} trials "
                "not yet run; completed trials are in the journal"
            )
        return results


# ----------------------------------------------------------------------
# Resume verification against the manifest machinery
# ----------------------------------------------------------------------


def manifest_trial_digests(manifest: dict) -> Dict[str, Optional[str]]:
    """``fingerprint -> recorded digest`` for every trial in a manifest.

    Reconstructs each config entry's :class:`TrialSpec` list exactly as
    :func:`~repro.experiments.runner.run_cells` built it (seeds
    re-derived, ``trace_hash`` forced as the recorder forces it), so the
    fingerprints match what a supervised run journals.
    """
    from repro.observe.manifest import specs_for_entry

    digests: Dict[str, Optional[str]] = {}
    for entry in manifest.get("configs", []):
        specs = specs_for_entry(entry)
        for spec, digest in zip(specs, entry["trace_digests"]):
            digests[trial_fingerprint(execute_trial, spec)] = digest
    return digests


def verify_journal_against_manifest(
    journal: TrialJournal, manifest: dict
) -> List[str]:
    """Cross-check journaled digests against a (partial) manifest.

    Returns human-readable problem lines; empty means every trial the
    journal and the manifest both know about carries the same trace
    digest — the precondition for a resume to be byte-equivalent to a
    fresh run.  Trials only one side knows about are fine (the manifest
    records whole configs; the journal records single trials).
    """
    problems: List[str] = []
    expected = manifest_trial_digests(manifest)
    for fingerprint, digest in journal.digests.items():
        recorded = expected.get(fingerprint, _MISS)
        if recorded is _MISS:
            continue
        if recorded != digest:
            problems.append(
                f"journal digest {digest} contradicts manifest digest "
                f"{recorded} for trial {fingerprint[:12]}…"
            )
    return problems
