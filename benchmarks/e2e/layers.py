"""Per-layer event census and self-time recorder for the traced run.

Everything here is installed from the benchmark's own files by patching
class attributes of the simulator for the duration of a ``with`` block;
no file under ``src/`` knows about it.  Two kinds of hook:

* **Events.**  ``Engine.schedule``, ``schedule_at`` and
  ``schedule_at_batch`` wrap each callback so that firing it counts one
  event for the layer that owns the callback, and opens a span for that
  layer.  The owner is the ``repro`` subpackage of the callback's
  module.  A ``repro.sim.resource`` completion carries the ``done``
  callback of whoever acquired the resource, and is charged to *its*
  module, so link hops count as ``icn`` and NIC ports as ``net``.
* **Calls.**  The public entry points in :data:`ENTRY_POINTS` count one
  call each and open a span for their layer.

Self time is span time minus the time of the spans nested inside it,
kept with a span stack.  Time outside every span (the engine loop and
glue between entry points) is the caller's ``sim.loop_s``.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.sim.engine import Engine

#: ``repro`` subpackages on the simulation path, in report order.  ``sim``
#: is the event kernel; its events are the engine total and its time is
#: the loop time outside every span.
LAYERS = ("sim", "icn", "net", "core", "cpu", "sched", "systems",
          "workloads", "metrics", "telemetry", "dc", "faults", "hybrid",
          "runner")

#: Layer -> (module, class, method) entry points whose calls are counted
#: and timed.  A method is wrapped on the named class and on every
#: subclass that overrides it (the policy families).
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "icn": (("repro.icn.network", "Network", "send"),
            ("repro.icn.network", "Network", "send_fanout")),
    "net": (("repro.net.nic", "LNic", "process"),
            ("repro.net.nic", "TopLevelNic", "process"),
            ("repro.net.nic", "TopLevelNic", "pick_village"),
            ("repro.net.fabric", "InterServerFabric", "send"),
            ("repro.net.fabric", "StorageBackend", "access")),
    "core": (("repro.core.village", "Village", "submit"),
             ("repro.core.village", "Village", "finish"),
             ("repro.core.request_queue", "RequestQueue", "enqueue"),
             ("repro.core.request_queue", "RequestQueue", "dequeue"),
             ("repro.core.context_switch", "SchedulerDomain", "charge_save"),
             ("repro.core.context_switch", "SchedulerDomain",
              "charge_restore"),
             ("repro.core.context_switch", "SchedulerDomain",
              "scheduler_op")),
    "cpu": (("repro.cpu.core_model", "CoreModel", "segment_time_ns"),),
    "sched": (("repro.sched.dispatch", "DispatchPolicy", "choose"),
              ("repro.sched.policies", "DequeuePolicy", "key"),
              ("repro.sched.stealing", "StealPolicy", "steal")),
    "systems": (("repro.systems.cluster", "ClusterSimulation", "__init__"),
                ("repro.systems.server", "Server", "client_request"),
                ("repro.systems.server", "Server", "segment_time_ns"),
                ("repro.systems.server", "Server", "segment_done")),
    "workloads": (("repro.workloads.arrival", "RateProfile", "generate"),
                  ("repro.workloads.spec", "ServiceSpec",
                   "sample_segments")),
    "metrics": (("repro.metrics.latency", "LatencyRecorder", "record"),
                ("repro.metrics.latency", "LatencyRecorder", "summary")),
    "telemetry": (("repro.telemetry.metrics", "MetricsRegistry",
                   "sample_once"),
                  ("repro.telemetry.metrics", "Histogram", "observe")),
    "dc": (("repro.dc.lb", "FrontEndLB", "route"),
           ("repro.dc.lb", "FrontEndLB", "request_done"),
           ("repro.dc.lb", "LBPolicy", "choose")),
    "faults": (("repro.faults.injector", "FaultInjector", "install"),
               ("repro.faults.resilience", "ResilienceConfig",
                "backoff_ns")),
    "hybrid": (("repro.hybrid.controller", "HybridController",
                "intercept_root"),
               ("repro.hybrid.controller", "HybridController",
                "observe_call"),
               ("repro.hybrid.controller", "HybridController",
                "elide_call")),
    "runner": (("repro.runner.cache", "ResultCache", "get"),
               ("repro.runner.cache", "ResultCache", "put"),
               ("repro.runner.point", "SweepPoint", "key")),
}

_RESOURCE_MODULE = "repro.sim.resource"


def _family(cls: type) -> List[type]:
    """``cls`` and all its (transitive) subclasses."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_family(sub))
    return out


class LayerRecorder:
    """Counts events and calls per layer and measures their self time.

    Use as a context manager around building *and* running the
    simulations; the hooks are removed on exit.
    """

    def __init__(self) -> None:
        self.events: Dict[str, int] = {name: 0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        #: Callbacks whose module is outside ``repro`` (none expected);
        #: kept so the event census still sums to the engine total.
        self.events["other"] = 0
        self.self_s["other"] = 0.0
        self._layer_of_module: Dict[str, str] = {}
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[type, str, Any]] = []

    # ---------------------------------------------------------------- spans

    def _span(self, layer: str, fn: Callable, args: tuple,
              kwargs: dict) -> Any:
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dur - frame[0]
            if stack:
                stack[-1][0] += dur

    # ------------------------------------------------------------- owners

    def _module_layer(self, module: Any) -> str:
        layer = self._layer_of_module.get(module)
        if layer is None:
            parts = str(module).split(".")
            layer = parts[1] if (len(parts) > 1 and parts[0] == "repro"
                                 and parts[1] in LAYERS) else "other"
            self._layer_of_module[module] = layer
        return layer

    def owner(self, fn: Callable, args: tuple) -> str:
        """Layer charged for one event: the callback's subpackage, or for
        a resource completion the subpackage of the ``done`` it carries."""
        module = getattr(fn, "__module__", None)
        if module == _RESOURCE_MODULE and args:
            module = getattr(args[-1], "__module__", module)
        return self._module_layer(module)

    def _event(self, fn: Callable, args: tuple) -> Callable:
        layer = self.owner(fn, args)
        events = self.events
        span = self._span

        def fire(*fire_args):
            events[layer] += 1
            return span(layer, fn, fire_args, {})

        return fire

    def _call(self, layer: str, fn: Callable) -> Callable:
        calls = self.calls
        span = self._span

        @functools.wraps(fn)
        def call(*args, **kwargs):
            calls[layer] += 1
            return span(layer, fn, args, kwargs)

        return call

    # ------------------------------------------------------------ install

    def _patch(self, cls: type, name: str, value: Any) -> None:
        self._undo.append((cls, name, cls.__dict__.get(name)))
        setattr(cls, name, value)

    def __enter__(self) -> "LayerRecorder":
        engine_cls = type(Engine())
        schedule = engine_cls.schedule
        schedule_at = engine_cls.schedule_at
        schedule_at_batch = engine_cls.schedule_at_batch
        event = self._event

        def hooked_schedule(engine, delay, fn, *args):
            return schedule(engine, delay, event(fn, args), *args)

        def hooked_schedule_at(engine, time, fn, *args):
            return schedule_at(engine, time, event(fn, args), *args)

        def hooked_schedule_at_batch(engine, times, fn, *args,
                                     append_time=False):
            return schedule_at_batch(engine, times, event(fn, args), *args,
                                     append_time=append_time)

        self._patch(engine_cls, "schedule", hooked_schedule)
        self._patch(engine_cls, "schedule_at", hooked_schedule_at)
        self._patch(engine_cls, "schedule_at_batch", hooked_schedule_at_batch)
        for layer, points in ENTRY_POINTS.items():
            for module, class_name, method in points:
                base = getattr(importlib.import_module(module), class_name)
                for cls in _family(base):
                    if method in cls.__dict__:
                        self._patch(cls, method,
                                    self._call(layer, cls.__dict__[method]))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            cls, name, original = self._undo.pop()
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    # ------------------------------------------------------------- report

    def total_events(self) -> int:
        """Events fired under the recorder, over every layer."""
        return sum(self.events.values())

    def report(self, traced_s: float) -> Dict[str, float]:
        """Per-layer numbers for a traced pass that took ``traced_s``.

        Returns ``<layer>.events``, ``<layer>.calls``, ``<layer>.self_s``
        and ``<layer>.self_share`` for every layer but ``sim``, plus
        ``sim.loop_s``: traced time charged to no other layer (the
        engine loop, glue between entry points, and the rare callback
        owned by the kernel itself).
        """
        out: Dict[str, float] = {}
        for layer in LAYERS[1:]:
            out[f"{layer}.events"] = self.events[layer]
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.self_share"] = self.self_s[layer] / traced_s
        out["sim.loop_s"] = traced_s - sum(self.self_s[layer]
                                           for layer in LAYERS[1:])
        return out
