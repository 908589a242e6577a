"""Property: observation never perturbs the simulation.

For random small configurations, a trial run under an active
:class:`Profiler` produces the *bit-identical* trace digest — and an
equal report — to a run without one, and a configuration run under an active
:class:`ManifestRecorder` reports the same ``fingerprint()`` as one run
without it.  This is the dynamic, randomized counterpart of the
pinned-digest checks in
``tests/integration/test_determinism.py::TestObservationInvisibility``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.executor import TrialSpec, execute_trial
from repro.experiments.runner import run_guess_config
from repro.faults.plan import FaultPlan
from repro.observe.manifest import ManifestRecorder, activated
from repro.observe.profiler import GLOBAL_PHASE, Profiler
from repro.observe.profiler import activated as profiling

seeds = st.integers(min_value=0, max_value=2**31 - 1)
cache_sizes = st.sampled_from([5, 10, 30])
retries = st.sampled_from([0, 2])
loss_rates = st.sampled_from([0.0, 0.1])

SYSTEM = SystemParams(network_size=40)


def _run(seed, cache_size, probe_retries, loss, profiler):
    spec = TrialSpec(
        SYSTEM,
        ProtocolParams(cache_size=cache_size, probe_retries=probe_retries),
        duration=80.0,
        warmup=0.0,
        seed=seed,
        faults=FaultPlan(loss_rate=loss) if loss else None,
        trace_hash=True,
    )
    if profiler is None:
        report = execute_trial(spec)
    else:
        with profiling(profiler):
            report = execute_trial(spec)
    return report.trace_digest, report


def _fingerprint(seed, cache_size, probe_retries, loss):
    (report,) = run_guess_config(
        SYSTEM,
        ProtocolParams(cache_size=cache_size, probe_retries=probe_retries),
        duration=60.0,
        warmup=20.0,
        base_seed=seed,
        faults=FaultPlan(loss_rate=loss) if loss else None,
    )
    return report.fingerprint()


@given(
    seed=seeds,
    cache_size=cache_sizes,
    probe_retries=retries,
    loss=loss_rates,
)
@settings(max_examples=8, deadline=None)
def test_observation_is_invisible_to_trace_digests(
    seed, cache_size, probe_retries, loss
):
    plain_digest, plain_report = _run(
        seed, cache_size, probe_retries, loss, None
    )
    observed_digest, observed_report = _run(
        seed, cache_size, probe_retries, loss, Profiler()
    )
    assert observed_digest == plain_digest
    assert observed_report == plain_report

    plain = _fingerprint(seed, cache_size, probe_retries, loss)
    recorder = ManifestRecorder()
    with activated(recorder):
        recorded = _fingerprint(seed, cache_size, probe_retries, loss)
    assert recorded == plain
    assert len(recorder.configs) == 1


@given(seed=seeds)
@settings(max_examples=4, deadline=None)
def test_observers_actually_observe(seed):
    """Guard against a vacuous pass: the attached observers see traffic."""
    profiler = Profiler()
    _, report = _run(seed, 10, 0, 0.0, profiler)
    assert report.queries > 0
    assert profiler._stats[GLOBAL_PHASE].events > 0

    recorder = ManifestRecorder()
    with activated(recorder):
        _fingerprint(seed, 10, 0, 0.0)
    (entry,) = recorder.configs
    assert entry["seeds"] and all(entry["trace_digests"])
