"""Repository benchmark: end-to-end and per-layer metrics of the simulator.

Run from the root of a checkout::

    python3 layerbench/run.py --workload ntrx_write --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing of the
benchmark's own instrumentation armed; ``--trace 1`` runs untraced and
traced repetitions in pairs and reports the per-layer metrics.  Every
repetition builds a fresh system from the seed and passes the output
check.  Diagnostics go to stdout as JSON lines; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.

See ``layerbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import array
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for fleet checkpoints, inside the checkout
WORKDIR = ROOT / ".layerbench_tmp"

#: workload names, in report order (see workloads.py)
WORKLOADS = ("ntrx_write", "webserver_armed", "fleet_pageftl")

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END: Dict[str, str] = {
    "events_per_s": "events/s",
    "host_ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_iops": "IOPS",
    "sim_erases": "count",
    "sim_waf": "ratio",
    "sim_read_mean_ms": "ms",
    "sim_read_p99_ms": "ms",
    "ok_frac": "ratio",
}

#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER: Dict[str, str] = {
    "kernel.events": "count",
    "kernel.self_s": "s",
    "kernel.ns_per_event": "ns",
    "kernel.unwrapped_events": "count",
    "controller.self_s": "s",
    "controller.calls": "count",
    "controller.ops_issued": "count",
    "controller.admission_wait_ms_p99": "ms",
    "ftl.self_s": "s",
    "ftl.next_op_calls": "count",
    "ftl.next_op_yield": "ratio",
    "ftl.gc_programs": "count",
    "ftl.backup_programs": "count",
    "ftl.foreground_gcs": "count",
    "ftl.background_gcs": "count",
    "ftl.lsb_share": "ratio",
    "nand.self_s": "s",
    "nand.programs.host": "count",
    "nand.programs.gc": "count",
    "nand.programs.backup": "count",
    "nand.reads": "count",
    "nand.erases": "count",
    "nand.ns_per_op": "ns",
    "physics.self_s": "s",
    "physics.reads_sampled": "count",
    "physics.read_errors": "count",
    "physics.shift_retries": "count",
    "physics.ladder_reads": "count",
    "physics.uncorrectable": "count",
    "tracer.self_s": "s",
    "tracer.records": "count",
    "tracer.dropped": "count",
    "scenario.gen_s": "s",
    "host.self_s": "s",
    "runner.build_s": "s",
    "runner.warmup_s": "s",
    "qos.self_s": "s",
    "qos.arbitrations": "count",
    "qos.slo_violations": "count",
    "fleet.self_s": "s",
    "fleet.build_s": "s",
    "fleet.advance_s": "s",
    "fleet.snapshot_s": "s",
    "fleet.checkpoints": "count",
    "fleet.snapshot_mb": "MiB",
    "fleet.aggregate_s": "s",
    "py.gc_s": "s",
    "py.gc_collections": "count",
    "traced.overhead_pct": "%",
    "traced.unattributed_frac": "ratio",
    "traced.wrapper_ns_per_call": "ns",
}

#: set-up is sampled at least this often and for at least this long
SETUP_SAMPLES = 5
SETUP_MIN_S = 0.5

#: End-to-end host times are reported in reference seconds.  A shared
#: host's speed drifts by tens of percent from one minute to the next as
#: its neighbours load the memory system, and the simulator, which
#: chases pointers through a large object graph, slows with it.  While a
#: ``--trace 0`` run measures, a timer therefore interrupts it every
#: CHASE_PERIOD_S to time CHASE_STEPS steps of a pointer chase through a
#: random cycle of CHASE_NODES slots (far larger than the caches).  The
#: chases' time is taken out of every timed region, and the regions are
#: scaled by REFERENCE_CHASE_S over the chases' median: they read as on a
#: host where a chase takes REFERENCE_CHASE_S.  The chase is the
#: benchmark's own code, so a change to the program cannot move it.
CHASE_NODES = 4_000_000
CHASE_STEPS = 3_000
CHASE_PERIOD_S = 0.05
REFERENCE_CHASE_S = 0.0009


def _import_library():
    """Put the checkout's ``src`` on the path and import the benchmark."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"error: {SRC / 'repro'} not found; run from the root "
                 f"of a repository checkout")
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    return layers, workloads


# ----------------------------------------------------------------------
# host record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _calibration_s() -> float:
    """Median time of a fixed pure-Python loop (host speed probe)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_record() -> Dict[str, Any]:
    """Python, cores, CPU model, load and the calibration loop time."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "calibration_s": _calibration_s(),
    }


class HostSpeed:
    """Samples the host's speed while a run measures (see
    :data:`REFERENCE_CHASE_S`); a context manager that arms the timer."""

    def __init__(self) -> None:
        order = numpy.random.default_rng(CHASE_NODES).permutation(
            CHASE_NODES)
        successor = numpy.empty_like(order)
        successor[order] = numpy.roll(order, -1)
        self._next = array.array("q")
        self._next.frombytes(successor.astype(numpy.int64).tobytes())
        self.samples: List[float] = []
        #: host seconds spent sampling so far
        self.spent = 0.0

    def _sample(self, _signum: int, _frame: Any) -> None:
        successor = self._next
        node = 0
        start = time.perf_counter()
        for _ in range(CHASE_STEPS):
            node = successor[node]
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CHASE_PERIOD_S, CHASE_PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Raw over reference host seconds, for this run."""
        return _median(self.samples) / REFERENCE_CHASE_S


def _emit(kind: str, payload: Any) -> None:
    print(json.dumps({kind: payload}, sort_keys=True), flush=True)


# ----------------------------------------------------------------------
# repetitions

class Rep:
    """One repetition: set-up, measured window, outputs."""

    def __init__(self, setup_s: float, serve_s: float, outcome,
                 timers: Dict[str, float]) -> None:
        self.setup_s = setup_s
        self.serve_s = serve_s
        self.outcome = outcome
        self.timers = timers


def run_rep(workload, seed: int, scale: float, probe=None,
            speed: Optional[HostSpeed] = None) -> Rep:
    """Prepare, serve and finish once; the collector runs as usual.

    Garbage left by the previous repetition is collected first, outside
    the timed regions, so every repetition starts from a similar heap.
    Time ``speed`` spent sampling is taken out of the timed regions.
    """
    gc.collect()

    def clock() -> float:
        return time.perf_counter() - (speed.spent if speed else 0.0)

    start = clock()
    state = workload.prepare(seed, scale, probe)
    prepared = clock()
    if probe is not None:
        probe.begin_window()
    served_at = clock()
    workload.serve(state)
    done = clock()
    if probe is not None:
        probe.end_window()
    try:
        outcome = workload.finish(state, probe)
    finally:
        timers = dict(state.get("timers", {}))
        workload.discard(state)
    return Rep(prepared - start, done - served_at, outcome, timers)


def setup_samples(workload, seed: int, scale: float, reps: List[Rep],
                  speed: HostSpeed) -> List[float]:
    """Set-up times of the repetitions, topped up with set-up-only
    runs."""
    samples = [rep.setup_s for rep in reps]
    gc.collect()
    while len(samples) < SETUP_SAMPLES or sum(samples) < SETUP_MIN_S:
        start = time.perf_counter() - speed.spent
        state = workload.prepare(seed, scale)
        samples.append(time.perf_counter() - speed.spent - start)
        workload.discard(state)
    return samples


def rss_child(workload_name: str, seed: int, scale: float
              ) -> Tuple[float, str]:
    """Peak RSS (MiB) and digest of one repetition in a fresh process."""
    command = [sys.executable, str(Path(__file__)), "--workload",
               workload_name, "--seed", str(seed), "--scale", str(scale),
               "--rss-child"]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"RSS child failed ({done.returncode}): "
                           f"{done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return float(result["peak_rss_mb"]), str(result["digest"])


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# metrics

def end_to_end(reps: List[Rep], setups: List[float], peak_rss_mb: float,
               host_factor: float) -> Dict[str, float]:
    """End-to-end metrics: medians over the repetitions, host times in
    reference seconds (``host_factor`` = raw / reference seconds)."""
    first = reps[0].outcome
    metrics = {
        "events_per_s": _median([r.outcome.events / r.serve_s
                                 for r in reps]) * host_factor,
        "host_ops_per_s": _median([r.outcome.completed / r.serve_s
                                   for r in reps]) * host_factor,
        "setup_s": _median(setups) / host_factor,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(first.sim)
    return metrics


def layer_self_s(probe, twin: Rep) -> Dict[str, float]:
    """A traced repetition's per-layer self times, net of the wrappers.

    The calibrated per-call cost is removed first; what the traced
    window still holds beyond its untraced twin's serve time is treated
    as a uniform slowdown of every layer, so the self times add up to
    the twin's serve time.
    """
    selfs = probe.corrected_self_s()
    scale = twin.serve_s / sum(selfs.values())
    return {layer: s * scale for layer, s in selfs.items()}


def per_layer(layers_mod, traced: List[Tuple[Rep, Any]],
              untraced: List[Rep]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced repetitions, each
    paired with the untraced repetition run just before it."""
    samples: Dict[str, List[float]] = {}
    for (rep, probe), twin in zip(traced, untraced):
        sample = _layer_sample(layers_mod, rep, probe,
                               layer_self_s(probe, twin))
        for name, value in sample.items():
            samples.setdefault(name, []).append(value)
    metrics = {name: _median(values) for name, values in samples.items()}
    # set-up phase timers of the single-device workloads come from the
    # untraced repetitions; the fleet's run inside its traced serve
    for name in ("runner.build", "runner.warmup", "scenario.gen"):
        values = [rep.timers[name] for rep in untraced
                  if name in rep.timers]
        if values:
            metrics[f"{name}_s"] = _median(values)
    traced_s = _median([rep.serve_s for rep, _ in traced])
    untraced_s = _median([rep.serve_s for rep in untraced])
    metrics["traced.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    _emit("traced", {
        "untraced_serve_s": untraced_s,
        "traced_serve_s": traced_s,
        "shares": _shares({layer: metrics.get(f"{layer}.self_s", 0.0)
                           for layer in layers_mod.LAYERS})})
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def _layer_sample(layers_mod, rep: Rep, probe,
                  selfs: Dict[str, float]) -> Dict[str, float]:
    outcome = rep.outcome
    out: Dict[str, float] = dict(outcome.layer)
    for layer in layers_mod.LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    for phase, seconds in probe.phase_s().items():
        out[f"{phase}_s"] = seconds
    events = outcome.events
    kernel_children = probe.children(layers_mod.KERNEL)
    nand_calls = probe.calls("nand")
    next_op_calls = probe.counts["ftl.next_op"]
    out.update({
        "kernel.events": events,
        "kernel.ns_per_event": selfs.get("kernel", 0.0) * 1e9 / events,
        "kernel.unwrapped_events": events - kernel_children,
        "controller.calls": probe.calls("controller"),
        "controller.ops_issued": sum(probe.op_counts.values()),
        "ftl.next_op_calls": next_op_calls,
        "ftl.next_op_yield": (probe.counts["ftl.yield"] / next_op_calls
                              if next_op_calls else 0.0),
        "nand.ns_per_op": (selfs.get("nand", 0.0) * 1e9 / nand_calls
                           if nand_calls else 0.0),
        "py.gc_s": probe.gc_ns / 1e9,
        "py.gc_collections": probe.gc_collections,
        "traced.unattributed_frac": (
            selfs[layers_mod.ROOT] / sum(selfs.values())),
        "traced.wrapper_ns_per_call": probe.noop_ns,
    })
    return out


# ----------------------------------------------------------------------
# modes

def measure(args, layers_mod, workloads_mod) -> int:
    workload = workloads_mod.workloads(WORKDIR)[args.workload]
    _emit("host", host_record())
    speed: Optional[HostSpeed] = None
    reps: List[Rep] = []
    traced: List[Tuple[Rep, Any]] = []
    measured = 0.0
    if args.trace:
        while not reps or measured < args.seconds:
            reps.append(run_rep(workload, args.seed, args.scale))
            probe = layers_mod.LayerProbe()
            probe.calibrate()
            with probe:
                rep = run_rep(workload, args.seed, args.scale, probe)
            traced.append((rep, probe))
            measured += reps[-1].serve_s + rep.serve_s
    else:
        speed = HostSpeed()
        with speed:
            while not reps or measured < args.seconds:
                reps.append(run_rep(workload, args.seed, args.scale,
                                    speed=speed))
                measured += reps[-1].serve_s
            setups = setup_samples(workload, args.seed, args.scale, reps,
                                   speed)
    all_reps = reps + [rep for rep, _ in traced]
    errors = [error for rep in all_reps for error in rep.outcome.errors]
    digests = {rep.outcome.digest for rep in all_reps}
    if args.trace:
        metrics = per_layer(layers_mod, traced, reps)
        units = PER_LAYER
    else:
        peak_rss_mb, child_digest = rss_child(args.workload, args.seed,
                                              args.scale)
        digests.add(child_digest)
        metrics = end_to_end(reps, setups, peak_rss_mb, speed.factor())
        units = END_TO_END
    if len(digests) != 1:
        errors.append(f"digests differ between repetitions: "
                      f"{sorted(digests)}")
    recorded = _recorded_digest(args, workloads_mod)
    if recorded is not None and digests != {recorded}:
        errors.append(f"digest {sorted(digests)} != recorded {recorded}")
    _emit("run", {"workload": args.workload, "seed": args.seed,
                  "scale": args.scale, "trace": args.trace,
                  "repetitions": len(all_reps),
                  "serve_s": [round(r.serve_s, 4) for r in all_reps],
                  "host_factor": speed.factor() if speed else None,
                  "digest": sorted(digests), "errors": errors,
                  "loadavg_after": list(os.getloadavg())})
    result = {
        "correct": not errors,
        "attempted": sum(r.outcome.attempted for r in all_reps),
        "failed": sum(r.outcome.failed for r in all_reps),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


def _recorded_digest(args, workloads_mod) -> Optional[str]:
    """The digest ``digests.json`` holds for this run, if any."""
    if args.seed != workloads_mod.DEFAULT_SEED or args.scale != 1.0:
        return None
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        return json.load(handle).get(args.workload)


def child(args, workloads_mod) -> int:
    """One untraced repetition; report peak RSS and the digest."""
    workload = workloads_mod.workloads(WORKDIR)[args.workload]
    rep = run_rep(workload, args.seed, args.scale)
    print(json.dumps({"peak_rss_mb": _peak_rss_mb(),
                      "digest": rep.outcome.digest}))
    return 0


def _peak_rss_mb() -> float:
    """This process's peak resident set (MiB).

    Linux carries the parent's resident set at fork into the child's
    ``ru_maxrss`` across exec, so the high-water mark of the process's
    own address space (``VmHWM``) is read first.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def profile_check(args, layers_mod, workloads_mod) -> int:
    """Compare the traced layer ranking with a cProfile run's.

    Both instruments charge part of each call's instrumentation cost to
    the caller, so the ranking compared is the traced run's before the
    wrapper-cost correction; the corrected shares are printed beside it.
    """
    workload = workloads_mod.workloads(WORKDIR)[args.workload]
    twin = run_rep(workload, args.seed, args.scale)
    probe = layers_mod.LayerProbe()
    probe.calibrate()
    with probe:
        rep = run_rep(workload, args.seed, args.scale, probe)

    def in_layers(times: Dict[str, float]) -> Dict[str, float]:
        return {layer: s for layer, s in times.items()
                if layer in layers_mod.LAYERS and s > 0.0}

    raw = in_layers(probe.raw_self_s())
    corrected = in_layers(layer_self_s(probe, twin))
    state = workload.prepare(args.seed, args.scale)
    profiler = cProfile.Profile()
    profiler.enable()
    workload.serve(state)
    profiler.disable()
    workload.discard(state)
    profiled = _profile_layers(pstats.Stats(profiler))
    shared = [layer for layer in raw if layer in profiled]
    traced_rank = sorted(shared, key=raw.get, reverse=True)
    profiled_rank = sorted(shared, key=profiled.get, reverse=True)
    agree = traced_rank == profiled_rank
    _emit("profile_check", {
        "workload": args.workload,
        "traced_rank": traced_rank,
        "cprofile_rank": profiled_rank,
        "agree": agree,
        "traced_share": _shares(raw),
        "cprofile_share": _shares(profiled),
        "corrected_share": _shares(corrected),
        "wrapper_ns_per_call": probe.noop_ns,
    })
    return 0 if agree else 1


#: source path fragment -> layer, for attributing cProfile self time
_MODULE_LAYERS = (
    ("repro/sim/kernel.py", "kernel"),
    ("repro/sim/controller.py", "controller"),
    ("repro/sim/queues.py", "controller"),
    ("repro/sim/host.py", "host"),
    ("repro/scenarios/host.py", "host"),
    ("repro/core/", "ftl"),
    ("repro/ftl/", "ftl"),
    ("repro/nand/", "nand"),
    ("repro/reliability/", "physics"),
    ("repro/observability/", "tracer"),
    ("repro/qos/", "qos"),
    ("repro/fleet/", "fleet"),
    ("repro/experiments/", "runner"),
    ("repro/scenarios/", "scenario"),
)


def _layer_of(filename: str) -> Optional[str]:
    for fragment, layer in _MODULE_LAYERS:
        if fragment in filename:
            return layer
    return None


def _profile_layers(stats: pstats.Stats) -> Dict[str, float]:
    """cProfile self time per layer.

    Built-ins and the standard library have no layer of their own; each
    caller's share of their self time goes to the caller's layer.
    """
    out: Dict[str, float] = {}
    for (filename, _line, _name), entry in stats.stats.items():
        tottime, callers = entry[2], entry[4]
        layer = _layer_of(filename)
        if layer is not None:
            out[layer] = out.get(layer, 0.0) + tottime
            continue
        for (caller_file, _l, _n), caller_entry in callers.items():
            caller_layer = _layer_of(caller_file)
            if caller_layer is not None:
                out[caller_layer] = out.get(caller_layer, 0.0) \
                    + caller_entry[2]
    return out


def _shares(times: Dict[str, float]) -> Dict[str, float]:
    total = sum(times.values())
    return {layer: round(t / total, 4) for layer, t in
            sorted(times.items(), key=lambda item: -item[1])}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured host time to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (1.0 = the benchmark)")
    parser.add_argument("--rss-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--profile-check", action="store_true",
                        help="compare the traced layer ranking with "
                             "cProfile's and exit")
    args = parser.parse_args(argv)
    if not args.scale > 0:
        parser.error("--scale must be positive")
    layers_mod, workloads_mod = _import_library()
    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.rss_child:
            return child(args, workloads_mod)
        if args.profile_check:
            return profile_check(args, layers_mod, workloads_mod)
        return measure(args, layers_mod, workloads_mod)
    finally:
        if not args.rss_child:
            shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
