"""Per-layer host-time attribution for the traced benchmark run.

A :class:`LayerProbe` wraps the calls that cross each layer boundary of
the simulator — the kernel's event handlers, controller -> FTL,
controller -> NAND, controller -> physics, the hosts, the QoS
front-end, the tracer and the fleet service — and accumulates, per
layer, the host time spent inside that layer's calls *net of* the
wrapped calls they make into other layers (self time).

The wrappers are installed on the classes (and module globals) before
the system is built and removed afterwards, so:

* callers that cache a bound method at construction time — the
  controller's ``_ftl_next_op`` and ``_array_program``/``_read``/
  ``_erase``, the tracer's copy of ``_on_op_done`` — cache the wrapper;
  :meth:`LayerProbe.check_bound` verifies that they did;
* fleet snapshots still pickle: a bound method of a wrapped class
  pickles by name, exactly like the unwrapped one;
* nothing under ``src/`` changes, and the simulation is unchanged (the
  benchmark checks that traced and untraced digests are equal).

Every wrapped call costs host time of its own.  :meth:`calibrate`
measures that cost on a no-op call and :meth:`corrected_self_s` gives it
back: the part inside the wrapper's timed interval from the callee's
layer, the rest from the caller's.  In a running simulation a wrapped
call costs more than on a no-op (cache pressure on the program's own
work); the benchmark removes that remainder as a uniform slowdown (see
``run.py``).
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import statistics
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "unattributed"

#: (module, class, method, layer) of every class-level wrapper.  Kernel
#: handlers are the methods the event loop calls directly; a handler
#: missing here would be charged to the kernel and shows up as
#: ``kernel.unwrapped_events``.
CLASS_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator", "run", "kernel"),
    ("repro.sim.controller", "StorageController", "_on_op_done",
     "controller"),
    ("repro.sim.controller", "StorageController", "_finish_read_recovery",
     "controller"),
    ("repro.sim.controller", "StorageController", "submit", "controller"),
    ("repro.sim.host", "ClosedLoopHost", "_issue", "host"),
    ("repro.sim.host", "ClosedLoopHost", "_advance", "host"),
    ("repro.scenarios.host", "StreamingClosedLoopHost", "_issue", "host"),
    ("repro.scenarios.host", "StreamingClosedLoopHost", "_advance", "host"),
    ("repro.scenarios.host", "StreamingTraceReplayHost", "_arrive", "host"),
    ("repro.core.flexftl", "FlexFtl", "next_op", "ftl"),
    ("repro.core.flexftl", "FlexFtl", "background_op", "ftl"),
    ("repro.core.flexftl", "FlexFtl", "wants_background_gc", "ftl"),
    ("repro.ftl.pageftl", "PageFtl", "next_op", "ftl"),
    ("repro.ftl.pageftl", "PageFtl", "background_op", "ftl"),
    ("repro.ftl.pageftl", "PageFtl", "wants_background_gc", "ftl"),
    ("repro.nand.array", "NandArray", "program", "nand"),
    ("repro.nand.array", "NandArray", "read", "nand"),
    ("repro.nand.array", "NandArray", "erase", "nand"),
    ("repro.reliability.physics", "PhysicsEngine", "on_read", "physics"),
    ("repro.reliability.physics", "PhysicsEngine", "note_program",
     "physics"),
    ("repro.reliability.physics", "PhysicsEngine", "note_erase", "physics"),
    ("repro.observability.tracer", "Tracer", "event", "tracer"),
    ("repro.observability.tracer", "Tracer", "warm_parity", "tracer"),
    ("repro.qos.host", "MultiTenantHost", "_enqueue", "qos"),
    ("repro.qos.host", "MultiTenantHost", "_on_done", "qos"),
    ("repro.qos.host", "MultiTenantHost", "_wake", "qos"),
    ("repro.qos.arbiter", "DeficitRoundRobinArbiter", "select", "qos"),
    ("repro.qos.slo", "SloAccountant", "record", "qos"),
    ("repro.fleet.device", "DeviceRun", "build", "fleet"),
    ("repro.fleet.device", "DeviceRun", "advance", "fleet"),
    ("repro.fleet.device", "DeviceRun", "save", "fleet"),
    ("repro.fleet.aggregate", "FleetReport", "to_dict", "fleet"),
)

#: (modules holding the name, function, layer): module-level functions
#: are patched in every module that imported them by name.
FUNCTION_SPANS: Tuple[Tuple[Tuple[str, ...], str, str], ...] = (
    (("repro.experiments.runner", "repro.fleet.device",
      "repro.fleet.service"), "build_system", "runner"),
    (("repro.experiments.runner", "repro.fleet.device"),
     "warmup_device", "runner"),
    (("repro.qos.runner",), "tenant_specs_from_scenario", "scenario"),
)

#: Wrapped calls whose inclusive host time is also reported as a phase
#: timer (``<layer>.<name>`` -> seconds).
PHASE_TIMERS = {
    ("runner", "build_system"): "runner.build",
    ("runner", "warmup_device"): "runner.warmup",
    ("scenario", "tenant_specs_from_scenario"): "scenario.gen",
    ("fleet", "build"): "fleet.build",
    ("fleet", "advance"): "fleet.advance",
    ("fleet", "save"): "fleet.snapshot",
    ("fleet", "to_dict"): "fleet.aggregate",
}

#: Per-layer self times reported as ``<layer>.self_s``.
LAYERS = ("kernel", "controller", "ftl", "nand", "physics", "tracer",
          "host", "qos", "fleet", "runner", "scenario")

#: The layer of ``Simulator.run``: its direct wrapped children are the
#: event handlers.
KERNEL = "kernel"


class LayerProbe:
    """Accumulates per-layer self time and counts of one traced run."""

    def __init__(self) -> None:
        #: layer -> [self ns, wrapped calls, direct wrapped children]
        self._acc: Dict[str, List[int]] = {ROOT: [0, 0, 0]}
        #: PHASE_TIMERS name -> [inclusive ns]
        self._phases: Dict[str, List[int]] = {}
        #: flash ops completed in the window, by ``(OpKind, tag)``
        self.op_counts: Counter = Counter()
        #: other event counts: FTL calls and yields, arbitrations,
        #: checkpoint bytes
        self.counts: Counter = Counter()
        #: every write request submitted (for the admission wait)
        self.write_requests: List[Any] = []
        #: per open wrapped call, the time and the number of wrapped
        #: calls it made; the bottom entries are the measured window's
        #: (two int stacks: a frame object per call would add collector
        #: work to every wrapped call)
        self._child_ns: List[int] = [0]
        self._child_calls: List[int] = [0]
        self._undo: List[Callable[[], None]] = []
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0
        self._window_start = 0
        #: wrapper cost on a no-op call, and the share of it inside the
        #: wrapper's timed interval (see :meth:`calibrate`)
        self.noop_ns = 0.0
        self.inside_share = 0.5

    # ------------------------------------------------------------------
    # wrappers

    def wrap(self, layer: str, fn: Callable, phase: Optional[str] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a call into ``layer``.

        ``phase`` also accumulates the call's inclusive time under that
        name.  ``after(result, args)`` does the probe's bookkeeping for
        the call; it runs inside the timed interval, so its cost is
        charged to ``layer``.
        """
        child_ns = self._child_ns
        child_calls = self._child_calls
        push_ns, pop_ns = child_ns.append, child_ns.pop
        push_calls, pop_calls = child_calls.append, child_calls.pop
        acc = self._acc.setdefault(layer, [0, 0, 0])
        clock = time.perf_counter_ns

        if phase is None and after is None:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                push_ns(0)
                push_calls(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    acc[0] += elapsed - pop_ns()
                    acc[1] += 1
                    acc[2] += pop_calls()
                    child_ns[-1] += elapsed
                    child_calls[-1] += 1

            return span

        timer = self._phases.setdefault(phase, [0]) if phase else [0]

        @functools.wraps(fn)
        def hooked_span(*args, **kwargs):
            push_ns(0)
            push_calls(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                elapsed = clock() - start
                acc[0] += elapsed - pop_ns()
                acc[1] += 1
                acc[2] += pop_calls()
                child_ns[-1] += elapsed
                child_calls[-1] += 1
                timer[0] += elapsed

        return hooked_span

    def calls(self, layer: str) -> int:
        """Wrapped calls into ``layer`` inside the window."""
        return self._acc.get(layer, [0, 0, 0])[1]

    def children(self, layer: str) -> int:
        """Wrapped calls made directly from ``layer``'s calls."""
        return self._acc.get(layer, [0, 0, 0])[2]

    def phase_s(self) -> Dict[str, float]:
        """Inclusive seconds of each :data:`PHASE_TIMERS` phase."""
        return {name: timer[0] / 1e9 for name, timer in self._phases.items()}

    def _after_hooks(self) -> Dict[Tuple[str, str], Callable]:
        from repro.sim.queues import RequestKind

        counts = self.counts
        op_counts = self.op_counts
        writes = self.write_requests
        write = RequestKind.WRITE

        def op_done(_result, args):
            op = args[2]
            op_counts[op.kind, op.tag] += 1

        def yielded(result, _args):
            counts["ftl.next_op"] += 1
            if result is not None:
                counts["ftl.yield"] += 1

        def submitted(_result, args):
            request = args[1]
            if request.kind is write:
                writes.append(request)

        def saved(_result, args):
            counts["fleet.snapshot_bytes"] += os.path.getsize(args[1])

        def arbitrated(_result, _args):
            counts["qos.arbitrations"] += 1

        return {
            ("StorageController", "_on_op_done"): op_done,
            ("FlexFtl", "next_op"): yielded,
            ("PageFtl", "next_op"): yielded,
            ("StorageController", "submit"): submitted,
            ("DeviceRun", "save"): saved,
            ("DeficitRoundRobinArbiter", "select"): arbitrated,
        }

    def install(self) -> None:
        """Wrap every boundary in :data:`CLASS_SPANS`/:data:`FUNCTION_SPANS`."""
        if self._undo:
            raise RuntimeError("probe already installed")
        hooks = self._after_hooks()
        for module_name, class_name, attr, layer in CLASS_SPANS:
            cls = getattr(importlib.import_module(module_name), class_name)
            phase = PHASE_TIMERS.get((layer, attr))
            after = hooks.get((class_name, attr))
            own = cls.__dict__.get(attr)
            if isinstance(own, classmethod):
                wrapped = classmethod(
                    self.wrap(layer, own.__func__, phase, after))
            else:
                wrapped = self.wrap(layer, getattr(cls, attr), phase, after)
            setattr(cls, attr, wrapped)
            self._undo.append(_restore_attr(cls, attr, own))
        for modules, name, layer in FUNCTION_SPANS:
            phase = PHASE_TIMERS.get((layer, name))
            for module_name in modules:
                module = importlib.import_module(module_name)
                own = module.__dict__[name]
                setattr(module, name, self.wrap(layer, own, phase))
                self._undo.append(_restore_attr(module, name, own))
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerProbe":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def wrap_tracer(self, controller) -> None:
        """Wrap the instance hooks a :class:`Tracer` installed.

        The tracer replaces ``controller._execute`` with its traced
        copy and chains ``ftl._after_host_program``; both are tracer
        code, so they are timed as the tracer layer (their NAND calls
        still net out as children).
        """
        controller._execute = self.wrap("tracer", controller._execute)
        ftl = controller.ftl
        ftl._after_host_program = self.wrap("tracer",
                                            ftl._after_host_program)

    @staticmethod
    def check_bound(controller) -> None:
        """Fail loudly when a cached bound method escaped the wrappers."""
        for cached in ("_ftl_next_op", "_array_program", "_array_read",
                       "_array_erase"):
            fn = getattr(controller, cached).__func__
            if not hasattr(fn, "__wrapped__"):
                raise RuntimeError(
                    f"controller.{cached} is not wrapped: the probe must "
                    f"be installed before the system is built")

    def _on_gc(self, phase: str, _info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    # ------------------------------------------------------------------
    # the measured window

    def begin_window(self) -> None:
        """Zero every accumulator and open the measured window."""
        for acc in self._acc.values():
            acc[:] = [0, 0, 0]
        for timer in self._phases.values():
            timer[0] = 0
        self.op_counts.clear()
        self.counts.clear()
        self.write_requests.clear()
        self.gc_ns = 0
        self.gc_collections = 0
        self._child_ns[:] = [0]
        self._child_calls[:] = [0]
        self._window_start = time.perf_counter_ns()

    def end_window(self) -> None:
        """Close the window; time outside every wrapped call is
        charged to :data:`ROOT`."""
        window_ns = time.perf_counter_ns() - self._window_start
        acc = self._acc[ROOT]
        acc[0] += window_ns - self._child_ns[0]
        acc[2] += self._child_calls[0]

    # ------------------------------------------------------------------
    # overhead calibration

    def calibrate(self, calls: int = 100_000, repeats: int = 3) -> None:
        """Measure how a wrapper's cost splits around its timed interval.

        Times a loop of bare no-op calls against the same loop through
        a wrapper (medians of ``repeats``); the no-op takes three
        positional arguments, like the typical wrapped method.  Sets
        ``noop_ns``, the cost one wrapper adds to a no-op call, and
        ``inside_share``, the part of it that lands inside the
        wrapper's own timed interval (charged to the callee; the rest
        is charged to the caller).
        """
        def noop(_self, _a, _b):
            return None

        gc.collect()
        scratch = LayerProbe()
        wrapped = scratch.wrap("calibration", noop)
        loop = range(calls)
        clock = time.perf_counter_ns

        def timed(fn) -> int:
            start = clock()
            for _ in loop:
                fn(0, 1, 2)
            return clock() - start

        def empty() -> int:
            start = clock()
            for _ in loop:
                pass
            return clock() - start

        empties, bares, wraps, insides = [], [], [], []
        for _ in range(repeats):
            empties.append(empty())
            bares.append(timed(noop))
            scratch.begin_window()
            wraps.append(timed(wrapped))
            insides.append(scratch._acc["calibration"][0])
        bare_call = (statistics.median(bares)
                     - statistics.median(empties)) / calls
        self.noop_ns = (statistics.median(wraps)
                        - statistics.median(bares)) / calls
        inside = statistics.median(insides) / calls - bare_call
        self.inside_share = min(1.0, max(0.0, inside / self.noop_ns))

    # ------------------------------------------------------------------
    # results

    def raw_self_s(self) -> Dict[str, float]:
        """Per-layer self time as measured, wrapper cost included."""
        return {layer: acc[0] / 1e9 for layer, acc in self._acc.items()}

    def corrected_self_s(self) -> Dict[str, float]:
        """Per-layer self time with the calibrated wrapper cost removed.

        Each wrapped call gives back :attr:`noop_ns`: the part inside
        the wrapper's timed interval from the callee's layer, the rest
        from the caller's.  Includes :data:`ROOT`, the window's time
        outside every wrapped call.
        """
        inside = self.noop_ns * self.inside_share
        outside = self.noop_ns - inside
        out = {}
        for layer, (self_ns, calls, children) in self._acc.items():
            ns = self_ns - calls * inside - children * outside
            out[layer] = max(0.0, ns) / 1e9
        return out


def _restore_attr(owner: Any, attr: str, own: Any) -> Callable[[], None]:
    """Undo for a patched attribute: put back ``own``, or remove the
    patch when ``owner`` only inherited the attribute."""
    def undo() -> None:
        if own is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)
    return undo
