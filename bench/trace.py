"""Outside-in layer tracing: wrap the layers' public functions, time them.

Nothing inside :mod:`repro` knows about this module.  :class:`Tracer`
resolves each target by dotted name at run time, swaps a wrapper onto the
class or module attribute, and restores every attribute afterwards.  A
target that no longer exists is skipped and listed under
``missing_targets`` — a rename must not be able to break the end-to-end
half of the benchmark.

Two wrapper kinds:

* *span* — two clock reads; charges its duration to the enclosing span so
  self time = duration − child spans − calibrated wrapper cost;
* *count-only* — no clock read, for functions too small to time
  (``QueryCache.add``, ``LinkCache.touch``); their wrapper cost stays in
  the enclosing span's self time (≈0.1 µs per call).

Spans are aggregated as they close (a 5000-peer run closes ~3M of them;
holding each would cost more memory than the simulation).  The first
:data:`RAW_SPAN_LIMIT` are also kept raw — id, name, start, end, parent —
and written out with the aggregates when the child ends.

Handler kinds are attributed from outside by wrapping
``Simulator.schedule``: the ``action`` it is given is timed under the
event's public ``label``; label, priority and args pass through untouched
so the trace digest cannot move.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Raw spans kept verbatim (the rest only feed the aggregates).
RAW_SPAN_LIMIT = 2000

#: Event labels ``GuessSimulation`` schedules; anything else lands in "other".
HANDLER_LABELS = (
    "ping",
    "burst",
    "death",
    "birth",
    "health-sample",
    "storm",
    "storm-death",
    "gossip",
    "freshness",
)

SPAN, COUNT, SCHEDULE = "span", "count", "schedule"

#: The span :meth:`Tracer.root` opens around the timed region.
ROOT_SPAN = "trace.timed_region"

#: ``(layer, "module:Owner.attr" or "module:function", kind, span short name)``.
#: The span's full name is ``<layer>.<short name>``.
STATIC_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.engine", "repro.sim.engine:Simulator.run_until", SPAN, "run_until"),
    ("sim.engine", "repro.sim.engine:Simulator.schedule", SCHEDULE, "schedule"),
    ("core.network_sim", "repro.core.network_sim:GuessSimulation.__init__", SPAN, "init"),
    ("core.network_sim", "repro.core.network_sim:GuessSimulation.run", SPAN, "run"),
    ("core.network_sim", "repro.core.network_sim:GuessSimulation.report", SPAN, "report"),
    ("core.search", "repro.core.search:execute_query", SPAN, "execute_query"),
    ("core.search", "repro.core.search:CandidatePool.add", COUNT, "pool_add"),
    ("core.search", "repro.core.search:CandidatePool.pop", COUNT, "pool_pop"),
    ("network.transport", "repro.network.transport:Transport.probe", SPAN, "probe"),
    ("network.transport", "repro.network.transport:Transport.register", COUNT, "register"),
    ("network.transport", "repro.network.transport:Transport.unregister", COUNT, "unregister"),
    ("core.peer", "repro.core.peer:GuessPeer.receive_probe", SPAN, "receive_probe"),
    ("core.peer", "repro.core.peer:GuessPeer.make_pong", SPAN, "make_pong"),
    ("core.peer", "repro.core.peer:GuessPeer.import_pong_to_link_cache", SPAN, "import_pong"),
    ("core.peer", "repro.core.peer:GuessPeer.choose_ping_target", SPAN, "choose_ping_target"),
    ("core.link_cache", "repro.core.link_cache:LinkCache.insert", SPAN, "insert"),
    ("core.link_cache", "repro.core.link_cache:LinkCache.evict", SPAN, "evict"),
    ("core.link_cache", "repro.core.link_cache:LinkCache.entries", SPAN, "entries"),
    ("core.link_cache", "repro.core.link_cache:LinkCache.touch", COUNT, "touch"),
    ("core.link_cache", "repro.core.link_cache:LinkCache.record_results", COUNT, "record_results"),
    ("core.query_cache", "repro.core.query_cache:QueryCache.add", COUNT, "add"),
    ("core.query_cache", "repro.core.query_cache:QueryCache.pop", COUNT, "pop"),
    ("core.peer_store", "repro.core.peer_store:PeerStore.add", SPAN, "add"),
    ("core.peer_store", "repro.core.peer_store:PeerStore.remove", SPAN, "remove"),
    ("core.peer_store", "repro.core.peer_store:PeerStore.kth_live", COUNT, "kth_live"),
    ("metrics.collectors", "repro.metrics.collectors:MetricsCollector.record_query", SPAN, "record_query"),
    ("metrics.collectors", "repro.metrics.collectors:MetricsCollector.record_ping", SPAN, "record_ping"),
    ("metrics.collectors", "repro.metrics.collectors:MetricsCollector.record_health_sample", SPAN, "record_health_sample"),
    ("metrics.collectors", "repro.metrics.collectors:MetricsCollector.build_report", SPAN, "build_report"),
    ("sim.rng", "repro.sim.rng:RngRegistry.stream", SPAN, "stream"),
    ("sim.rng", "repro.sim.rng:derive_seed", SPAN, "derive_seed"),
    ("workload", "repro.workload.content:ContentModel.build_library", SPAN, "build_library"),
    ("workload", "repro.workload.content:ContentModel.draw_query_target", SPAN, "draw_query_target"),
    ("workload", "repro.workload.lifetimes:LifetimeModel.sample", SPAN, "lifetime_sample"),
    ("faults", "repro.faults.injector:FaultInjector.should_drop", SPAN, "should_drop"),
    ("faults", "repro.faults.retry:probe_with_retry", SPAN, "probe_with_retry"),
    ("resilience", "repro.resilience.breaker:BreakerBoard.allow", COUNT, "breaker_allow"),
    ("resilience", "repro.resilience.breaker:BreakerBoard.record_refusal", COUNT, "breaker_refusal"),
    ("resilience", "repro.resilience.budget:RetryBudget.try_spend", COUNT, "budget_spend"),
    ("resilience", "repro.resilience.scenarios:ScenarioDriver.warp_delay", SPAN, "warp_delay"),
    ("baselines.gossip", "repro.baselines.gossip:GossipRelay.pick_targets", SPAN, "pick_targets"),
    ("freshness", "repro.freshness.mediator:FreshnessMediator.pick_contacts", SPAN, "pick_contacts"),
    ("freshness", "repro.freshness.mediator:FreshnessMediator.cache_capacity", SPAN, "cache_capacity"),
    ("experiments", "repro.experiments.runner:run_guess_config", SPAN, "run_guess_config"),
    ("experiments", "repro.experiments.executor:execute_trial", SPAN, "execute_trial"),
    ("experiments", "repro.experiments.executor:SerialTrialExecutor.map", SPAN, "map"),
    ("experiments", "repro.experiments.executor:ProcessTrialExecutor.map", SPAN, "map"),
    ("reporting", "repro.experiments.runner:ExperimentResult.render", SPAN, "render"),
    ("observe.manifest", "repro.observe.manifest:write_manifest", SPAN, "write_manifest"),
    ("observe.manifest", "repro.sim.engine:TraceHasher.fold", COUNT, "fold"),
)

#: Policy methods wrapped on ``Policy`` and every registered subclass
#: that defines them.
POLICY_METHODS = ("select_top", "choose_victim_from", "order", "select_best")

#: Every layer the report carries (``trace`` is the tracer's own cost).
LAYERS = tuple(dict.fromkeys(t[0] for t in STATIC_TARGETS)) + (
    "sim.scheduler",
    "core.policies",
)


def _dynamic_targets() -> List[Tuple[str, str, str, str]]:
    """Targets whose owner is only known once ``repro`` is importable."""
    from repro.core.policies import get_ordering_policy, registered_policy_names
    from repro.sim.engine import Simulator
    from repro.sim.wheel import make_scheduler

    targets = []
    # Whichever scheduler the default Simulator builds.
    scheduler = type(make_scheduler(Simulator().scheduler))
    where = f"{scheduler.__module__}:{scheduler.__qualname__}"
    targets.append(("sim.scheduler", f"{where}.push", SPAN, "push"))
    targets.append(("sim.scheduler", f"{where}.pop_next", SPAN, "pop"))
    classes = {type(get_ordering_policy(n)) for n in registered_policy_names()}
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        for base in (cls, *cls.__mro__[1:]):
            if base is object or not base.__module__.startswith("repro."):
                continue
            for method in POLICY_METHODS:
                if method in vars(base):
                    where = f"{base.__module__}:{base.__qualname__}.{method}"
                    targets.append(("core.policies", where, SPAN, method))
    return list(dict.fromkeys(targets))


def _resolve(dotted: str) -> Tuple[Any, str, Any]:
    """``"module:Owner.attr"`` -> ``(owner, attr, raw attribute)``.

    Raises ImportError/AttributeError/KeyError when any part is gone.
    """
    module_name, _, path = dotted.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Installs, aggregates and removes the wrappers.

    Args:
        extra_targets: additional ``(layer, dotted, kind, short)`` rows —
            the test-suite passes a bogus one to see it reported missing.
    """

    def __init__(
        self, extra_targets: Sequence[Tuple[str, str, str, str]] = ()
    ) -> None:
        self._extra = tuple(extra_targets)
        self._stack: List[List[int]] = []
        #: [recording raw spans?, last span id]
        self._rec: List[Any] = [False, 0]
        self.raw: List[Tuple[int, str, int, int, int]] = []
        #: span name -> [calls, total_ns, child_ns, direct children, True returns]
        self.spans: Dict[str, List[int]] = {}
        #: count-only name -> [calls]
        self.counts: Dict[str, List[int]] = {}
        #: span name -> per-call durations (ns), only where percentiles are reported
        self.samples: Dict[str, List[int]] = {"core.search.execute_query": []}
        self.layer_of: Dict[str, str] = {}
        self.missing: List[str] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._origin = 0

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _agg(self, layer: str, name: str) -> List[int]:
        self.layer_of[name] = layer
        return self.spans.setdefault(name, [0, 0, 0, 0, 0])

    def _span(self, fn: Callable, name: str, agg: List[int]) -> Callable:
        stack, rec, raw = self._stack, self._rec, self.raw
        samples = self.samples.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if rec[0]:
                rec[1] += 1
                frame = [0, 0, rec[1]]
            else:
                frame = [0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # Inner spans have already unwound, so this frame is on top;
                # the aborted span is not counted.
                stack.pop()
                raise
            dur = clock() - t0
            stack.pop()
            agg[0] += 1
            agg[1] += dur
            agg[2] += frame[0]
            agg[3] += frame[1]
            if result is True:
                agg[4] += 1
            if stack:
                parent = stack[-1]
                parent[0] += dur
                parent[1] += 1
            if samples is not None:
                samples.append(dur)
            if rec[0] and len(frame) == 3:
                parent_id = stack[-1][2] if stack and len(stack[-1]) == 3 else 0
                raw.append((frame[2], name, t0, t0 + dur, parent_id))
                if len(raw) >= RAW_SPAN_LIMIT:
                    rec[0] = False
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @staticmethod
    def _count(fn: Callable, counter: List[int]) -> Callable:
        def counted(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def _wrap_schedule(self, fn: Callable) -> Callable:
        """``Simulator.schedule``: a span itself, and times what it schedules."""
        handlers = {
            label: (f"sim.engine.handler.{label}",
                    self._agg("core.network_sim", f"sim.engine.handler.{label}"))
            for label in HANDLER_LABELS + ("other",)
        }
        other = handlers["other"]
        inner = self._span(fn, "sim.engine.schedule", self._agg("sim.engine", "sim.engine.schedule"))
        span = self._span

        def schedule(sim, time, action, **kwargs):
            name, agg = handlers.get(kwargs.get("label", ""), other)
            return inner(sim, time, span(action, name, agg), **kwargs)

        schedule.__wrapped__ = fn  # type: ignore[attr-defined]
        return schedule

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, raw: Any, make: Callable) -> None:
        if isinstance(raw, (staticmethod, classmethod)):
            wrapper: Any = type(raw)(make(raw.__func__))
        else:
            wrapper = make(raw)
        owners = [owner]
        if isinstance(owner, type(sys)):
            # A module-level function is also bound, by value, in every
            # module that did ``from x import f``.
            owners += [
                m for n, m in list(sys.modules.items())
                if n.startswith("repro.") and m is not owner
                and vars(m).get(attr) is raw
            ]
        for target in owners:
            self._patched.append((target, attr, raw))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        """Calibrate, resolve every target, then swap the wrappers in.

        Resolving first imports every target module before anything is
        patched, so no module can bind a wrapper by value
        (``from x import f``) and keep it after :meth:`uninstall`.
        """
        self._calibrate()
        rows = list(STATIC_TARGETS) + list(self._extra)
        try:
            rows += _dynamic_targets()
        except (ImportError, AttributeError, KeyError) as error:
            self.missing.append(f"<dynamic targets>: {error!r}")
        resolved = []
        for layer, dotted, kind, short in rows:
            try:
                resolved.append((layer, kind, f"{layer}.{short}", *_resolve(dotted)))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(dotted)
        for layer, kind, name, owner, attr, raw in resolved:
            if kind == SPAN:
                agg = self._agg(layer, name)
                self._patch(owner, attr, raw, lambda f, n=name, a=agg: self._span(f, n, a))
            elif kind == COUNT:
                self.layer_of[name] = layer
                counter = self.counts.setdefault(name, [0])
                self._patch(owner, attr, raw, lambda f, c=counter: self._count(f, c))
            else:
                self._patch(owner, attr, raw, self._wrap_schedule)
        self._origin = time.perf_counter_ns()
        self._rec[0] = True

    def uninstall(self) -> None:
        """Put every original attribute back (reverse order)."""
        self._rec[0] = False
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def root(self) -> Iterator[None]:
        """A span around the timed region; its self time is the unattributed rest."""
        agg = self._agg("trace", ROOT_SPAN)
        frame = [0, 0, 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dur = time.perf_counter_ns() - t0
            self._stack.pop()
            agg[0] += 1
            agg[1] += dur
            agg[2] += frame[0]
            agg[3] += frame[1]

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def _calibrate(self, calls: int = 20000) -> None:
        """Measure the wrapper's own cost on a no-op.

        ``inner_ns`` is the part that lands inside the span's own
        interval; ``outer_ns`` the part its parent sees around it.
        """
        def noop() -> None:
            return None

        clock = time.perf_counter_ns
        agg = [0, 0, 0, 0, 0]
        traced = self._span(noop, "trace.calibration", agg)
        self._stack.append([0, 0])
        try:
            best_bare = best_traced = None
            for _ in range(5):
                t0 = clock()
                for _ in range(calls):
                    noop()
                bare = clock() - t0
                t0 = clock()
                for _ in range(calls):
                    traced()
                with_span = clock() - t0
                best_bare = bare if best_bare is None else min(best_bare, bare)
                best_traced = with_span if best_traced is None else min(best_traced, with_span)
        finally:
            self._stack.clear()
        per_span = max(0.0, (best_traced - best_bare) / calls)
        self.inner_ns = min(per_span, max(0.0, agg[1] / agg[0] - best_bare / calls))
        self.outer_ns = per_span - self.inner_ns

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def self_ns(self, name: str) -> float:
        """Self time of one span name, wrapper cost removed."""
        calls, total, child, children, _ = self.spans[name]
        return total - child - children * self.outer_ns - calls * self.inner_ns

    def summary(self) -> Dict[str, Any]:
        """Aggregates per span name and per layer (times in seconds)."""
        per_span = {}
        layers: Dict[str, Dict[str, float]] = {
            layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS
        }
        total_spans = 0
        for name, (calls, total, _, _, trues) in sorted(self.spans.items()):
            layer = self.layer_of[name]
            self_s = self.self_ns(name) / 1e9
            per_span[name] = {
                "layer": layer,
                "kind": SPAN,
                "calls": calls,
                "total_s": total / 1e9,
                "self_s": self_s,
                "returned_true": trues,
            }
            total_spans += calls
            if layer == "trace":
                continue
            layers[layer]["self_s"] += self_s
            # A handler's calls are engine events, not calls into the layer
            # that owns the handler's code.
            if not name.startswith("sim.engine.handler."):
                layers[layer]["calls"] += calls
        for name, (calls,) in sorted(self.counts.items()):
            layer = self.layer_of[name]
            per_span[name] = {"layer": layer, "kind": COUNT, "calls": calls}
            layers[layer]["calls"] += calls
        root = self.spans.get(ROOT_SPAN)
        samples = {
            name: sorted(values) for name, values in self.samples.items() if values
        }
        return {
            "spans": per_span,
            "layers": layers,
            "span_count": total_spans,
            "span_cost_ns": self.inner_ns + self.outer_ns,
            "tracer_self_s": total_spans * (self.inner_ns + self.outer_ns) / 1e9,
            "root_total_s": root[1] / 1e9 if root else 0.0,
            "unattributed_s": self.self_ns(ROOT_SPAN) / 1e9 if root else 0.0,
            "samples_ns": samples,
            "missing_targets": list(self.missing),
            "raw_spans": [
                {"id": sid, "name": name, "start_ns": t0 - self._origin,
                 "end_ns": t1 - self._origin, "parent": parent}
                for sid, name, t0, t1, parent in self.raw
            ],
        }


def percentile(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending sequence (None if empty)."""
    if not sorted_values:
        return None
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
