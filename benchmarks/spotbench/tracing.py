"""Span tracer for the benchmark's traced run, installed from outside ``repro``.

The tracer replaces public class attributes of each layer with thin
wrappers that record a span -- name, start, end, parent span and a tag --
around every call.  The wrappers are installed before any system is built
(so ``Simulator.on`` registrations are wrapped too) and removed afterwards;
they only observe, so a traced run makes exactly the decisions of an
untraced one (the benchmark compares the digests).

Spans stay in memory as flat arrays and are written once, at the end.  A
span's self time is its duration minus the time its direct children cover;
the self times of all spans under a root add up to the root's duration.

Tags: a span opened by a ``REQUEST_ARRIVAL`` handler or callback carries the
request id; a span opened by any other handler except ``BATCH_COMPLETION``
starts a new adaptation round and carries ``-round``; nested spans inherit
their parent's tag, and untagged spans carry 0.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import time
from array import array
from typing import Callable, Dict, Iterator, List, Tuple

from repro.cloud.provider import CloudProvider
from repro.core.admission import AdmissionPolicy
from repro.core.autoscaler import Autoscaler
from repro.core.controller import ParallelizationController
from repro.core.device_mapper import DeviceMapper
from repro.core.interruption import InterruptionArranger
from repro.core.migration import MigrationPlanner
from repro.core.stats import ServingStats
from repro.core.tenancy import FleetPartitioner
from repro.engine.batching import RequestQueue
from repro.engine.pipeline import InferencePipeline
from repro.llm.profiler import OfflineProfiler
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue, EventType
from repro.sim.network import GB
from repro.workload.arrival import ArrivalProcess

#: ``(class, attribute, span name)`` for every plain call-through wrapper.
SPANNED: Tuple[Tuple[type, str, str], ...] = (
    (Simulator, "run", "sim.run"),
    (RequestQueue, "enqueue", "engine.enqueue"),
    (RequestQueue, "next_batch", "engine.next_batch"),
    (RequestQueue, "shed", "engine.shed"),
    (InferencePipeline, "complete_batch", "engine.complete_batch"),
    (InferencePipeline, "interrupt", "engine.interrupt"),
    (ParallelizationController, "propose", "controller.propose"),
    (ParallelizationController, "estimate", "controller.estimate"),
    (OfflineProfiler, "profile", "profiler.profile"),
    (MigrationPlanner, "derive_tiered_plan", "planner.derive_tiered_plan"),
    (InterruptionArranger, "arrange_acquisition", "interruption.arrange_acquisition"),
    (Autoscaler, "plan", "autoscaler.plan"),
    (FleetPartitioner, "partition", "tenancy.partition"),
    (CloudProvider, "request_spot", "cloud.request_spot"),
    (CloudProvider, "request_on_demand", "cloud.request_on_demand"),
    (CloudProvider, "release", "cloud.release"),
)

#: Event kinds, in ``EventType`` order (metric names use the enum values).
KINDS: Tuple[str, ...] = tuple(kind.value for kind in EventType)

#: Handler kinds that do not start an adaptation round.
_UNROUNDED = (EventType.REQUEST_ARRIVAL, EventType.BATCH_COMPLETION)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Records spans around layer calls while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tag = array("q")
        self._stack: List[int] = []
        self._round = 0
        self._saved: List[Tuple[type, str, object]] = []
        #: Events popped from the queue, per kind.
        self.events: Dict[str, int] = {kind: 0 for kind in KINDS}
        #: Observations taken from layer arguments and results.
        self.mapper_reuse: List[float] = []
        self.mapper_transfer_bytes = 0.0
        self.plan_bytes = 0.0
        self.plan_stall_s = 0.0
        self.reroute_arrangements = 0
        self.queue_waits: List[float] = []
        self.batch_sizes: List[int] = []

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name_id: int, tag: int = 0) -> int:
        stack = self._stack
        index = len(self.start)
        parent = stack[-1] if stack else -1
        if tag == 0 and parent >= 0:
            tag = self.tag[parent]
        self.name_of.append(name_id)
        self.parent.append(parent)
        self.tag.append(tag)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open a root span (``setup`` or ``run``) around the enclosed block."""
        index = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _replace(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _span(self, original: Callable, name: str, after=None) -> Callable:
        tracer = self
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _event_span(self, function: Callable, event_type: EventType, role: str) -> Callable:
        """Wrap a handler (``role="handler"``) or event callback."""
        tracer = self
        name_id = self._name_id(f"sim.{role}.{event_type.value}")
        arrival = event_type is EventType.REQUEST_ARRIVAL
        starts_round = role == "handler" and event_type not in _UNROUNDED

        def wrapper(event):
            tag = 0
            if arrival:
                tag = getattr(event.payload, "request_id", 0)
            elif starts_round:
                tracer._round += 1
                tag = -tracer._round
            index = tracer.open(name_id, tag)
            try:
                function(event)
            finally:
                tracer.close(index)

        return wrapper

    def install(self) -> None:
        """Wrap every traced class attribute (call before building systems)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        tracer = self
        for cls, attr, name in SPANNED:
            self._replace(cls, attr, self._span(cls.__dict__[attr], name))

        original_on = Simulator.__dict__["on"]

        def on(simulator, event_type, handler):
            original_on(simulator, event_type, tracer._event_span(handler, event_type, "handler"))

        self._replace(Simulator, "on", on)

        original_schedule = Simulator.__dict__["schedule_at"]
        schedule_id = self._name_id("sim.schedule_at")

        def schedule_at(simulator, time_, event_type=EventType.GENERIC, payload=None,
                        callback=None, order=None):
            if callback is not None:
                callback = tracer._event_span(callback, event_type, "callback")
            index = tracer.open(schedule_id)
            try:
                return original_schedule(simulator, time_, event_type, payload, callback, order)
            finally:
                tracer.close(index)

        self._replace(Simulator, "schedule_at", schedule_at)

        original_pop = EventQueue.__dict__["pop_next"]
        events = self.events

        def pop_next(queue, *args, **kwargs):
            event = original_pop(queue, *args, **kwargs)
            if event is not None:
                events[event.event_type.value] += 1
            return event

        self._replace(EventQueue, "pop_next", pop_next)

        def mapped(mapping, _args):
            tracer.mapper_reuse.append(mapping.reuse_fraction)
            tracer.mapper_transfer_bytes += mapping.transfer_bytes

        self._replace(
            DeviceMapper, "map_devices",
            self._span(DeviceMapper.__dict__["map_devices"], "mapper.map_devices", mapped),
        )

        def planned(plan, _args):
            tracer.plan_bytes += plan.total_bytes
            tracer.plan_stall_s += plan.migration_time

        self._replace(
            MigrationPlanner, "plan",
            self._span(MigrationPlanner.__dict__["plan"], "planner.plan", planned),
        )

        def arranged(arrangement, _args):
            if not arrangement.migrate_cache:
                tracer.reroute_arrangements += 1

        self._replace(
            InterruptionArranger, "arrange_preemption",
            self._span(
                InterruptionArranger.__dict__["arrange_preemption"],
                "interruption.arrange_preemption",
                arranged,
            ),
        )

        def completed(_result, args):
            delay = args[1].scheduling_delay()
            if delay is not None:
                tracer.queue_waits.append(delay)

        self._replace(
            ServingStats, "record_completion",
            self._span(
                ServingStats.__dict__["record_completion"], "stats.record_completion", completed
            ),
        )

        def started(_result, args):
            tracer.batch_sizes.append(args[1].size)

        self._replace(
            InferencePipeline, "start_batch",
            self._span(InferencePipeline.__dict__["start_batch"], "engine.start_batch", started),
        )

        for cls in _subclasses(AdmissionPolicy):
            for attr in ("admit", "shed"):
                if attr in cls.__dict__:
                    self._replace(cls, attr, self._span(cls.__dict__[attr], f"admission.{attr}"))

        for cls in _subclasses(ArrivalProcess):
            if "iter_times" in cls.__dict__:
                self._replace(cls, "iter_times", self._arrivals(cls.__dict__["iter_times"]))

    def _arrivals(self, original: Callable) -> Callable:
        """Wrap ``iter_times`` so each ``next()`` on the stream is a span."""
        tracer = self
        name_id = self._name_id("workload.next")
        end_id = self._name_id("workload.end")

        def iter_times(process, duration):
            stream = original(process, duration)

            class Timed:
                def __iter__(self):
                    return self

                def __next__(self):
                    index = tracer.open(name_id)
                    try:
                        return next(stream)
                    except StopIteration:
                        # The call that finds the stream exhausted is no arrival.
                        tracer.name_of[index] = end_id
                        raise
                    finally:
                        tracer.close(index)

            return Timed()

        return iter_times

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span: duration minus its direct children's."""
        selfs = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                selfs[parent] -= self.end[index] - self.start[index]
        return selfs

    def root_of(self) -> List[int]:
        """Index of each span's root span."""
        roots = []
        for index, parent in enumerate(self.parent):
            roots.append(index if parent < 0 else roots[parent])
        return roots

    def by_name(self, root_name: str) -> Tuple[Dict[str, int], Dict[str, float], float]:
        """Calls and self seconds per span name under roots named *root_name*.

        Also returns the roots' total duration.
        """
        selfs = self.self_times()
        roots = self.root_of()
        root_id = self._name_ids.get(root_name, -1)
        calls: Dict[str, int] = {}
        seconds: Dict[str, float] = {}
        total = 0.0
        for index, root in enumerate(roots):
            if self.name_of[root] != root_id:
                continue
            name = self.names[self.name_of[index]]
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + selfs[index]
            if index == root:
                total += self.end[index] - self.start[index]
        return calls, seconds, total

    def propose_split(self, root_name: str) -> Tuple[int, float, float]:
        """``(cold calls, cold self s, warm self s)`` of propose spans under *root_name*.

        A propose is cold when at least one ``profiler.profile`` span is
        nested anywhere beneath it.
        """
        propose_id = self._name_ids.get("controller.propose", -1)
        profile_id = self._name_ids.get("profiler.profile", -1)
        root_id = self._name_ids.get(root_name, -1)
        cold = set()
        for index, name_id in enumerate(self.name_of):
            if name_id != profile_id:
                continue
            parent = self.parent[index]
            while parent >= 0 and self.name_of[parent] != propose_id:
                parent = self.parent[parent]
            if parent >= 0:
                cold.add(parent)
        selfs = self.self_times()
        roots = self.root_of()
        cold_s = warm_s = 0.0
        cold_calls = 0
        for index, name_id in enumerate(self.name_of):
            if name_id != propose_id or self.name_of[roots[index]] != root_id:
                continue
            if index in cold:
                cold_calls += 1
                cold_s += selfs[index]
            else:
                warm_s += selfs[index]
        return cold_calls, cold_s, warm_s

    def write(self, path) -> None:
        """Write every span as gzipped ``name,start,end,parent,tag`` CSV rows, once."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,tag\n")
            names = self.names
            for name_id, start, end, parent, tag in zip(
                self.name_of, self.start, self.end, self.parent, self.tag
            ):
                out.write(f"{names[name_id]},{start!r},{end!r},{parent},{tag}\n")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: ``(metric name, unit)`` of every per-layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    *((f"sim.events.{kind}", "count") for kind in KINDS),
    *((f"sim.self_s.{kind}", "s") for kind in KINDS),
    ("sim.core_self_s", "s"),
    ("sim.schedule_at.calls", "count"),
    ("sim.schedule_at.self_s", "s"),
    ("sim.handler_calls_per_event", "ratio"),
    ("workload.arrivals", "count"),
    ("workload.self_s", "s"),
    *(
        (f"engine.{op}.{what}", unit)
        for op in ("enqueue", "next_batch", "shed", "start_batch", "complete_batch", "interrupt")
        for what, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("engine.batch_size_mean", "requests"),
    ("engine.queue_wait_p50_s", "s"),
    ("engine.queue_wait_p99_s", "s"),
    ("admission.admit.calls", "count"),
    ("admission.admit.self_s", "s"),
    ("admission.shed.calls", "count"),
    ("admission.shed.self_s", "s"),
    ("admission.requests_rejected", "count"),
    ("admission.requests_shed", "count"),
    ("stats.record_completion.calls", "count"),
    ("stats.record_completion.self_s", "s"),
    ("controller.propose.calls", "count"),
    ("controller.propose.cold_calls", "count"),
    ("controller.propose.cold_self_s", "s"),
    ("controller.propose.warm_self_s", "s"),
    ("controller.propose.setup_self_s", "s"),
    ("controller.estimate.calls", "count"),
    ("controller.estimate.self_s", "s"),
    ("profiler.profile.calls", "count"),
    ("profiler.profile.self_s", "s"),
    ("costmodel.cache_hit_ratio", "ratio"),
    ("mapper.map_devices.calls", "count"),
    ("mapper.map_devices.self_s", "s"),
    ("mapper.reuse_fraction_mean", "ratio"),
    ("mapper.transfer_gb", "GB"),
    ("planner.plan.calls", "count"),
    ("planner.plan.self_s", "s"),
    ("planner.derive_tiered_plan.calls", "count"),
    ("planner.derive_tiered_plan.self_s", "s"),
    ("planner.plan_gb", "GB"),
    ("planner.stall_s", "s"),
    ("planner.migration_fallbacks", "count"),
    ("planner.spilled_gb", "GB"),
    ("interruption.arrange_preemption.calls", "count"),
    ("interruption.arrange_acquisition.calls", "count"),
    ("interruption.self_s", "s"),
    ("interruption.reroute_share", "share"),
    ("interruption.tokens_recomputed", "count"),
    ("autoscaler.plan.calls", "count"),
    ("autoscaler.plan.self_s", "s"),
    ("autoscaler.actions", "count"),
    ("tenancy.partition.calls", "count"),
    ("tenancy.partition.self_s", "s"),
    ("cloud.request_spot.calls", "count"),
    ("cloud.request_on_demand.calls", "count"),
    ("cloud.release.calls", "count"),
    ("cloud.self_s", "s"),
    ("cloud.refusals", "count"),
    ("cloud.launch_failures", "count"),
    ("cloud.retries", "count"),
    ("server.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.spans", "count"),
)


def run_parts(metrics: Dict[str, float]) -> Dict[str, float]:
    """The self-time metrics that add up to ``trace.run_s``.

    Every span under a ``run`` root lands in exactly one of them;
    ``server.self_s`` is the run roots' own self time.
    """
    return {
        name: value
        for name, value in metrics.items()
        if name.startswith("sim.self_s.")
        or (name.endswith("self_s") and name != "controller.propose.setup_self_s")
    }


def _nearest_rank(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def layer_metrics(tracer: Tracer, members) -> Dict[str, float]:
    """Every per-layer metric except the run-level ratios the driver adds.

    *members* are the ``(name, system)`` pairs of every traced cell; their
    stats supply the counters the layers keep themselves.
    """
    calls, seconds, run_s = tracer.by_name("run")
    _, setup_seconds, _ = tracer.by_name("setup")
    out: Dict[str, float] = {}
    events = sum(tracer.events.values())
    out["sim.events"] = events
    for kind in KINDS:
        out[f"sim.events.{kind}"] = tracer.events[kind]
        out[f"sim.self_s.{kind}"] = seconds.get(f"sim.handler.{kind}", 0.0) + seconds.get(
            f"sim.callback.{kind}", 0.0
        )
    out["sim.core_self_s"] = seconds.get("sim.run", 0.0)
    out["sim.schedule_at.calls"] = calls.get("sim.schedule_at", 0)
    out["sim.schedule_at.self_s"] = seconds.get("sim.schedule_at", 0.0)
    handler_calls = sum(calls.get(f"sim.handler.{kind}", 0) for kind in KINDS)
    out["sim.handler_calls_per_event"] = handler_calls / events if events else 0.0
    out["workload.arrivals"] = calls.get("workload.next", 0)
    out["workload.self_s"] = seconds.get("workload.next", 0.0) + seconds.get("workload.end", 0.0)
    for span in (
        "engine.enqueue", "engine.next_batch", "engine.shed", "engine.start_batch",
        "engine.complete_batch", "engine.interrupt", "admission.admit", "admission.shed",
        "stats.record_completion", "controller.estimate",
        "profiler.profile", "mapper.map_devices", "planner.plan",
        "planner.derive_tiered_plan", "autoscaler.plan", "tenancy.partition",
    ):
        out[f"{span}.calls"] = calls.get(span, 0)
        out[f"{span}.self_s"] = seconds.get(span, 0.0)
    sizes = tracer.batch_sizes
    out["engine.batch_size_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    out["engine.queue_wait_p50_s"] = _nearest_rank(tracer.queue_waits, 50)
    out["engine.queue_wait_p99_s"] = _nearest_rank(tracer.queue_waits, 99)
    cold_calls, cold_s, warm_s = tracer.propose_split("run")
    out["controller.propose.calls"] = calls.get("controller.propose", 0)
    out["controller.propose.cold_calls"] = cold_calls
    out["controller.propose.cold_self_s"] = cold_s
    out["controller.propose.warm_self_s"] = warm_s
    out["controller.propose.setup_self_s"] = setup_seconds.get("controller.propose", 0.0)
    hits = misses = 0
    for _, system in members:
        for hit, miss in system.latency_model.cache_info().values():
            hits += hit
            misses += miss
    out["costmodel.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    reuse = tracer.mapper_reuse
    out["mapper.reuse_fraction_mean"] = sum(reuse) / len(reuse) if reuse else 0.0
    out["mapper.transfer_gb"] = tracer.mapper_transfer_bytes / GB
    out["planner.plan_gb"] = tracer.plan_bytes / GB
    out["planner.stall_s"] = tracer.plan_stall_s
    arranged = calls.get("interruption.arrange_preemption", 0)
    out["interruption.arrange_preemption.calls"] = arranged
    out["interruption.arrange_acquisition.calls"] = calls.get(
        "interruption.arrange_acquisition", 0
    )
    out["interruption.self_s"] = seconds.get("interruption.arrange_preemption", 0.0) + seconds.get(
        "interruption.arrange_acquisition", 0.0
    )
    out["interruption.reroute_share"] = (
        tracer.reroute_arrangements / arranged if arranged else 0.0
    )
    for op in ("request_spot", "request_on_demand", "release"):
        out[f"cloud.{op}.calls"] = calls.get(f"cloud.{op}", 0)
    out["cloud.self_s"] = sum(
        seconds.get(f"cloud.{op}", 0.0) for op in ("request_spot", "request_on_demand", "release")
    )
    stats = [system.stats for _, system in members]
    out["admission.requests_rejected"] = sum(s.requests_rejected for s in stats)
    out["admission.requests_shed"] = sum(s.requests_shed for s in stats)
    out["planner.migration_fallbacks"] = sum(s.migration_fallbacks for s in stats)
    out["planner.spilled_gb"] = sum(s.bytes_spilled for s in stats) / GB
    out["interruption.tokens_recomputed"] = sum(s.tokens_recomputed for s in stats)
    out["autoscaler.actions"] = sum(len(s.autoscale_actions) for s in stats)
    out["cloud.refusals"] = sum(s.allocation_refusals for s in stats)
    out["cloud.launch_failures"] = sum(s.launch_failures for s in stats)
    out["cloud.retries"] = sum(s.acquisition_retries for s in stats)
    out["server.self_s"] = seconds.get("run", 0.0)
    out["trace.run_s"] = run_s
    out["trace.spans"] = len(tracer.start)
    return out
