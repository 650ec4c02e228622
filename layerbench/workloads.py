"""The benchmark's three workloads, driven through the library's entry points.

Each workload is a closed loop run in one process on one thread, and
splits into the same four steps:

* :meth:`prepare` — everything before the first measured op (system
  build, scenario generation, warm-up fill); timed as ``setup_s``;
* :meth:`serve` — the measured phase; timed for the throughput metrics;
* :meth:`finish` — reads the outputs back, checks them and digests them
  (untimed);
* :meth:`discard` — releases what ``prepare`` made.

Every input comes from the workload seed.  A :class:`~layers.LayerProbe`
may be passed to ``prepare``; it must already be installed, so the
system is built against the wrapped classes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List

from repro.experiments import runner
from repro.fleet import device as fleet_device
from repro.fleet.service import FleetSpec, run_fleet
from repro.metrics.latency import latency_summary
from repro.observability.tracer import Tracer
from repro.reliability.physics import PhysicsConfig, PhysicsEngine
from repro.scenarios.base import scenario_from_spec
from repro.scenarios.host import StreamingClosedLoopHost
from repro.scenarios.presets import make_preset
from repro.sim.ops import OpKind

#: Share of the FTL's logical space the single-device workloads cover
#: (the Figure 8 evaluation utilisation).
UTILIZATION = 0.75

#: Seed whose digests are recorded in ``digests.json``.
DEFAULT_SEED = 1


@dataclasses.dataclass
class Outcome:
    """What one measured run produced, read back after it ended."""

    #: kernel events retired in the measured window
    events: int
    #: host requests generated, and completed
    attempted: int
    completed: int
    #: generated requests that failed, were rejected or never completed
    failed: int
    #: simulated end-to-end metrics (deterministic for a seed)
    sim: Dict[str, float]
    #: layer counts and simulated figures the traced run reports
    layer: Dict[str, float]
    #: sha256 over the run's simulated outputs
    digest: str
    #: failed output checks (empty when the outputs are correct)
    errors: List[str]


def digest_of(payload: Dict[str, Any]) -> str:
    """sha256 of a canonical JSON rendering (floats at full precision)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sim_latency(reads: List[float], ok: float) -> Dict[str, float]:
    summary = latency_summary(reads)
    return {"sim_read_mean_ms": summary["mean"] * 1e3,
            "sim_read_p99_ms": summary["p99"] * 1e3,
            "ok_frac": ok}


def _waf(counters: Dict[str, int]) -> float:
    host = counters["host_programs"]
    return (host + counters["gc_programs"]
            + counters["backup_programs"]) / host


def _reconcile(counters: Dict[str, int], errors: List[str]) -> None:
    """NAND programs by page type must equal FTL programs by purpose."""
    by_type = counters["lsb_programs"] + counters["msb_programs"]
    by_tag = (counters["host_programs"] + counters["gc_programs"]
              + counters["backup_programs"])
    if by_type != by_tag:
        errors.append(f"NAND programs {by_type} != FTL programs {by_tag}")


def _reconcile_probe(probe, counters: Dict[str, int], reads: int,
                     errors: List[str]) -> Dict[str, float]:
    """Flash ops seen at the controller -> NAND boundary, by tag, must
    equal the FTL's and the array's own counters."""
    programs: Dict[str, int] = {}
    seen = {OpKind.READ: 0, OpKind.ERASE: 0}
    for (kind, tag), n in probe.op_counts.items():
        if kind is OpKind.PROGRAM:
            programs[tag] = programs.get(tag, 0) + n
        else:
            seen[kind] += n
    for tag in ("host", "gc", "backup"):
        if programs.get(tag, 0) != counters[f"{tag}_programs"]:
            errors.append(f"{programs.get(tag, 0)} {tag} programs seen, "
                          f"FTL counted {counters[f'{tag}_programs']}")
    array_programs = counters["lsb_programs"] + counters["msb_programs"]
    if sum(programs.values()) != array_programs:
        errors.append(f"{sum(programs.values())} programs seen, array "
                      f"counted {array_programs}")
    if seen[OpKind.ERASE] != counters["erases"]:
        errors.append(f"{seen[OpKind.ERASE]} erases seen, array counted "
                      f"{counters['erases']}")
    if seen[OpKind.READ] != reads:
        errors.append(f"{seen[OpKind.READ]} reads seen, array counted "
                      f"{reads}")
    return {
        "nand.programs.host": programs.get("host", 0),
        "nand.programs.gc": programs.get("gc", 0),
        "nand.programs.backup": programs.get("backup", 0),
        "nand.reads": seen[OpKind.READ],
        "nand.erases": seen[OpKind.ERASE],
    }


def _ftl_layer(counters: Dict[str, int]) -> Dict[str, float]:
    programs = counters["lsb_programs"] + counters["msb_programs"]
    return {
        "ftl.gc_programs": counters["gc_programs"],
        "ftl.backup_programs": counters["backup_programs"],
        "ftl.foreground_gcs": counters["foreground_gcs"],
        "ftl.background_gcs": counters["background_gcs"],
        "ftl.lsb_share": counters["lsb_programs"] / programs,
    }


def _admission_p99_ms(probe) -> float:
    waits = [r.completed_at - r.submitted_at
             for r in probe.write_requests if r.completed_at is not None]
    return latency_summary(waits)["p99"] * 1e3 if waits else 0.0


class SingleDevice:
    """One flexFTL device at the default 8-chip geometry, one preset.

    The scenario is generated in full during set-up so that the
    measured window holds simulation work only.
    """

    name = ""
    preset = ""
    ops = 0
    track_history = False
    armed = False

    def prepare(self, seed: int, scale: float = 1.0,
                probe=None) -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        clock = time.perf_counter
        start = clock()
        config = runner.ExperimentConfig(track_history=self.track_history)
        sim, array, _buffer, ftl, controller = runner.build_system(
            "flexFTL", config)
        built = clock()
        footprint = int(ftl.logical_pages * UTILIZATION)
        scenario = make_preset(self.preset, footprint=footprint,
                               total_ops=max(200, int(self.ops * scale)),
                               seed=seed)
        streams = [list(ops) for ops in scenario.op_streams()]
        generated = clock()
        tracer = None
        if self.armed:
            tracer = Tracer()
            tracer.install(controller)
            if probe is not None:
                probe.wrap_tracer(controller)
            tracer.begin_phase("warmup")
        if probe is not None:
            probe.check_bound(controller)
        runner.warmup_device(sim, controller, ftl, config,
                             footprint=footprint)
        warmed = clock()
        baseline, stats = runner.begin_measured_phase(controller, ftl,
                                                      config)
        engine = None
        if self.armed:
            tracer.begin_phase("measured")
            engine = PhysicsEngine(PhysicsConfig(
                seed=seed, pe_baseline=6000,
                retention_baseline_hours=8760.0))
            controller.attach_physics(engine)
            ftl.fault_stats = stats.faults
        host = StreamingClosedLoopHost(
            sim, controller, [iter(ops) for ops in streams],
            scenario=scenario)
        state.update(
            sim=sim, array=array, ftl=ftl, controller=controller,
            stats=stats, baseline=baseline, host=host, tracer=tracer,
            engine=engine, attempted=sum(len(ops) for ops in streams),
            events_before=sim.processed, reads_before=array.total_reads,
            timers={"runner.build": built - start,
                    "scenario.gen": generated - built,
                    "runner.warmup": warmed - generated})
        return state

    def serve(self, state: Dict[str, Any]) -> None:
        state["host"].start()
        state["sim"].run()

    def finish(self, state: Dict[str, Any], probe=None) -> Outcome:
        sim, ftl, stats = state["sim"], state["ftl"], state["stats"]
        tracer, engine = state["tracer"], state["engine"]
        layer: Dict[str, float] = {}
        if tracer is not None:
            tracer.finish()
            stats.metrics = tracer.metrics
            tracer.detach()
            if probe is not None:
                layer["tracer.records"] = sum(
                    1 for event in tracer.events()
                    if event.fields.get("phase") == "measured")
                layer["tracer.dropped"] = tracer.dropped_ops
        final = ftl.counters()
        counters = {key: final[key] - state["baseline"].get(key, 0)
                    for key in final}
        events = sim.processed - state["events_before"]
        reads = state["array"].total_reads - state["reads_before"]
        errors: List[str] = []
        attempted = state["attempted"]
        faults = stats.faults
        rejected = faults.writes_rejected if faults is not None else 0
        lost = faults.lost_pages if faults is not None else 0
        completed = stats.completed_requests
        if completed + rejected != attempted:
            errors.append(f"{attempted} requests generated, "
                          f"{completed} completed, {rejected} rejected")
        failed = min(attempted, attempted - completed + lost)
        _reconcile(counters, errors)
        summary = engine.summary() if engine is not None else None
        sim_metrics = {
            "sim_iops": stats.iops(),
            "sim_erases": counters["erases"],
            "sim_waf": _waf(counters),
        }
        sim_metrics.update(_sim_latency(stats.read_latencies,
                                        1.0 - failed / attempted))
        layer.update(_ftl_layer(counters))
        if probe is not None:
            layer.update(_reconcile_probe(probe, counters, reads, errors))
            layer["controller.admission_wait_ms_p99"] = \
                _admission_p99_ms(probe)
        for key in ("reads_sampled", "read_errors", "shift_retries",
                    "uncorrectable"):
            layer[f"physics.{key}"] = summary[key] if summary else 0
        layer["physics.ladder_reads"] = faults.ladder_reads if faults else 0
        digest = digest_of({"stats": stats.to_dict(), "counters": counters,
                            "events": events, "physics": summary})
        return Outcome(events=events, attempted=attempted,
                       completed=completed, failed=failed, sim=sim_metrics,
                       layer=layer, digest=digest, errors=errors)

    def discard(self, state: Dict[str, Any]) -> None:
        tracer = state.get("tracer")
        if tracer is not None:
            tracer.detach()
        state.clear()


class NtrxWrite(SingleDevice):
    """NTRX (3:7 read:write, 16 streams) with nothing armed: the write
    pipeline — controller pump, flexFTL ``next_op``, NAND programs, GC —
    once GC has cycled every chip's blocks several times."""

    name = "ntrx_write"
    preset = "ntrx"
    ops = 40_000


class WebserverArmed(SingleDevice):
    """Webserver (80% reads, 1-2 pages, think time) with history, the
    tracer and the physics engine armed at a worn, aged stress point
    (P/E 6000, one year of retention) where a few percent of host
    reads walk the voltage-shift ladder and none are lost."""

    name = "webserver_armed"
    preset = "webserver"
    ops = 40_000
    track_history = True
    armed = True


class FleetPageFtl:
    """``run_fleet`` inline: many small pageFTL devices running OLTP
    bound to two tenants behind the DRR arbiter, checkpointing every
    512 events."""

    name = "fleet_pageftl"
    devices = 64
    ops_per_device = 400
    checkpoint_every = 512

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def prepare(self, seed: int, scale: float = 1.0,
                probe=None) -> Dict[str, Any]:
        fleet = FleetSpec(devices=max(2, int(self.devices * scale)),
                          ftl_name="pageFTL", preset="oltp",
                          ops_per_device=self.ops_per_device, tenants=2,
                          arbiter="drr", seed=seed)
        specs = fleet.device_specs()
        self.workdir.mkdir(parents=True, exist_ok=True)
        checkpoints = tempfile.mkdtemp(prefix="fleet-", dir=self.workdir)
        return {"fleet": fleet, "specs": specs, "dir": checkpoints,
                "devices": []}

    def serve(self, state: Dict[str, Any]) -> None:
        with _captured_devices(state["devices"]):
            served = run_fleet(state["fleet"], jobs=1,
                               checkpoint_dir=state["dir"],
                               checkpoint_every=self.checkpoint_every,
                               quantum=self.checkpoint_every)
            state["report"] = served.to_dict()
        state["served"] = served

    def finish(self, state: Dict[str, Any], probe=None) -> Outcome:
        served = state["served"]
        totals = state["report"]["totals"]
        tenants = state["report"]["tenants"]
        counters = totals["counters"]
        errors: List[str] = []
        attempted = sum(scenario_from_spec(spec.scenario).total_ops
                        for spec in state["specs"])
        completed = totals["completed_requests"]
        if totals["completed_devices"] != totals["devices"]:
            errors.append(f"{totals['completed_devices']} of "
                          f"{totals['devices']} devices completed")
        if completed != attempted:
            errors.append(f"{attempted} requests generated, "
                          f"{completed} completed")
        if served.checkpoints == 0:
            errors.append("no checkpoint was written")
        _reconcile(counters, errors)
        failed = attempted - completed
        reads: List[float] = []
        served_counters: Counter = Counter()
        served_reads = 0
        for stats, device_counters, device_reads in state["devices"]:
            reads.extend(stats.read_latencies)
            served_reads += device_reads
            served_counters.update(device_counters)
        sim_metrics = {
            "sim_iops": totals["iops_mean"],
            "sim_erases": totals["erases_total"],
            "sim_waf": totals["write_amplification"],
        }
        sim_metrics.update(_sim_latency(reads, 1.0 - failed / attempted))
        layer = _ftl_layer(counters)
        layer["fleet.checkpoints"] = served.checkpoints
        layer["qos.slo_violations"] = sum(
            t["read_violations"] + t["write_violations"]
            for t in tenants.values())
        if probe is not None:
            # the traced window is the whole serve, warm-up fills included
            layer.update(_reconcile_probe(probe, served_counters,
                                          served_reads, errors))
            layer["controller.admission_wait_ms_p99"] = \
                _admission_p99_ms(probe)
            layer["fleet.snapshot_mb"] = \
                probe.counts["fleet.snapshot_bytes"] / 2**20
            layer["qos.arbitrations"] = probe.counts["qos.arbitrations"]
        digest = digest_of({"totals": totals, "tenants": tenants})
        return Outcome(events=totals["events"], attempted=attempted,
                       completed=completed, failed=failed, sim=sim_metrics,
                       layer=layer, digest=digest, errors=errors)

    def discard(self, state: Dict[str, Any]) -> None:
        if "dir" in state:
            shutil.rmtree(state["dir"], ignore_errors=True)
        state.clear()


@contextlib.contextmanager
def _captured_devices(sink: List[Any]) -> Iterator[None]:
    """Collect each fleet device's measured :class:`SimStats`, its FTL
    counters and its array read count into ``sink``.

    ``DeviceRun.result`` runs once per device after its simulation has
    ended.  The fleet report keeps only per-tenant p99s and
    measured-phase counter deltas, so the pooled read latencies and the
    whole-run counts the traced run reconciles against are read from
    the device here.  This is the one patch in an untraced fleet run,
    and it sits outside every simulation loop.
    """
    own = fleet_device.DeviceRun.__dict__["result"]

    def result(run):
        sink.append((run.controller.stats, run.ftl.counters(),
                     run.array.total_reads))
        return own(run)

    fleet_device.DeviceRun.result = result
    try:
        yield
    finally:
        fleet_device.DeviceRun.result = own


def workloads(workdir: Path) -> Dict[str, Any]:
    """The benchmark's workloads by name, in report order."""
    return {w.name: w for w in (NtrxWrite(), WebserverArmed(),
                                FleetPageFtl(workdir))}
