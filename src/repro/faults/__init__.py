"""Deterministic network fault injection.

GUESS runs over UDP: a lost packet and a dead peer produce the same
observable (a timeout), which is exactly the regime that stresses
link-cache maintenance.  This package makes that regime simulable while
preserving the repo's determinism contract:

* :mod:`repro.faults.plan` — the frozen, picklable :class:`FaultPlan`
  (independent per-probe loss);
* :mod:`repro.faults.injector` — the runtime :class:`FaultInjector`
  consulted by the transport, drawing on its own named RNG substream
  (``fault:loss``);
* :mod:`repro.faults.retry` — :class:`RetryPolicy` and
  :func:`probe_with_retry`, the retry layer the probe paths use to buy
  back spurious timeouts.

A zero :class:`FaultPlan` is contractually a no-op: no injector is
built, no fault stream is ever drawn, and golden trace digests are
bit-identical to a fault-free run.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetriedProbe, RetryPolicy, probe_with_retry

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "RetriedProbe",
    "RetryPolicy",
    "probe_with_retry",
]
