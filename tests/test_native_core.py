"""Differential suite: the native dispatch core against the Python oracle.

Every case runs one seeded simulation twice — on the pure-Python code
(the loader's module handle swapped to None) and on the native core
(:mod:`repro.sim._native`) — and requires byte identity of what the
run produced: ``SimStats.to_dict()``, the FTL counters and placement
state (mapping, cursors, policy alternation, write clock, buffered
lpns), ``sim.processed`` and, where a case is small enough to step event by
event, the event pop order.  Cases that must stay on Python (fault
injection, a patched ``_execute``) also check that the coverage
counters say so; the common cases check the core really ran.
"""

import hashlib
import json
import pickle
import random

import pytest

from repro.core.block_manager import TwoPhaseBlockManager
from repro.core.flexftl import FlexFtl
from repro.core.page_allocator import PolicyManager
from repro.core.predictor import EwmaBurstPredictor
from repro.experiments import fig8, runner
from repro.experiments.ablation import run_gc_policy_ablation
from repro.experiments.engine import EngineOptions
from repro.experiments.tlc_system import build_tlc_system
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recovery import recover_after_power_loss
from repro.fleet.device import DeviceRun
from repro.fleet.service import FleetSpec, fleet_config, run_fleet
from repro.ftl.base import BaseFtl, FtlConfig
from repro.ftl.pageftl import PageFtl
from repro.ftl.parityftl import ParityFtl
from repro.ftl.rtfftl import RtfFtl
from repro.ftl.slcftl import SlcFtl
from repro.nand.array import NandArray
from repro.nand.block import ERASED_CODE, PROGRAMMED_CODE
from repro.nand.geometry import NandGeometry, PhysicalPageAddress
from repro.nand.page_types import PageType, page_index
from repro.nand.sequence import SequenceScheme, constraint_violations
from repro.perfbench import harness
from repro.qos.arbiter import DeficitRoundRobinArbiter
from repro.qos.slo import SloAccountant, _ChainedHook
from repro.observability.tracer import Tracer
from repro.reliability.physics import PhysicsConfig, PhysicsEngine
from repro.scenarios.host import StreamingClosedLoopHost
from repro.scenarios.presets import make_preset
from repro.sim import _native
from repro.sim.host import ClosedLoopHost, StreamOp, TraceReplayHost
from repro.sim.kernel import Simulator
from repro.sim.controller import StorageController
from repro.sim.ops import FlashOp, OpKind
from repro.sim.powerloss import ScheduledPowerLoss
from repro.sim.queues import Request, RequestKind, WriteBuffer
from repro.sim.stats import SimStats
from repro.sim.tracing import OpLog
from repro.workloads.synthetic import sequential_fill

from tests.helpers import build_small_system, random_legal_order
from tests.test_golden_traces import SCENARIOS as TRACE_SCENARIOS
from tests.test_kernel_calendar_property import drive
from tests.test_perf_equivalence import GOLDEN as GOLDEN_FIG8

NATIVE = _native.core

pytestmark = pytest.mark.skipif(
    NATIVE is None, reason=f"native core unavailable: {_native.STATUS}")

GEOMETRY = NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=512)


@pytest.fixture
def use_core(monkeypatch):
    """``use_core(True)`` selects the native core, ``use_core(False)``
    the pure-Python oracle, for the rest of the test."""
    # The core binds its stock references on its first run: bind them
    # now, before the test patches anything, whatever ran before it.
    NATIVE.run(Simulator(), None, None)

    def select(native):
        monkeypatch.setattr(_native, "core", NATIVE if native else None)
        NATIVE.reset_coverage()
    return select


def both(use_core, run):
    """``run()`` on the oracle, then on the native core; returns
    ``(oracle, native, coverage of the native run)``."""
    use_core(False)
    oracle = run()
    use_core(True)
    native = run()
    return oracle, native, NATIVE.coverage()


def placement(ftl):
    """The FTL's placement state: the mapping (as a digest), the write
    clock, the write buffer's FIFO and, on flexFTL, each chip's fast
    cursor and SBQueue cursors and the policy's alternation."""
    state = {
        "l2p": hashlib.sha256(repr(ftl.mapping._l2p).encode()).hexdigest(),
        "write_clock": ftl._write_clock,
        "fifo": [entry.lpn for entry in ftl.write_buffer._fifo],
    }
    if isinstance(ftl, FlexFtl):
        managers = ftl.managers
        state["fast"] = [None if m._fast is None
                         else (m._fast.block, m._fast._next)
                         for m in managers]
        state["sbqueue"] = [[(cursor.block, cursor._next)
                             for cursor in m._sbqueue] for m in managers]
        state["next_alternate"] = int(ftl.policy._next_alternate)
    return state


def outcome(sim, ftl, stats):
    """Everything a run produced, as canonical JSON text."""
    return json.dumps({"stats": stats.to_dict(), "counters": ftl.counters(),
                       "placement": placement(ftl),
                       "processed": sim.processed, "now": sim.now,
                       "pending": sim.pending}, sort_keys=True)


def stepped(sim):
    """Run to exhaustion one event per ``run()`` call; the pop order
    as ``(time, seq)`` pairs."""
    order = []
    while sim._ensure_head():
        entry = sim._active[sim._active_pos]
        order.append((entry[0], entry[2]))
        sim.run(max_events=1)
    return order


def mixed_streams(span, count, seed, streams=4):
    """Seeded closed-loop streams: writes with some multi-page reads."""
    rng = random.Random(seed)
    out = []
    for _ in range(streams):
        ops = []
        for _ in range(count):
            kind = RequestKind.READ if rng.random() < 0.3 \
                else RequestKind.WRITE
            npages = rng.randint(1, 3)
            lpn = rng.randrange(span - npages)
            ops.append(StreamOp(kind, lpn, npages,
                                think_after=rng.choice((0.0, 0.0, 2e-4))))
        out.append(ops)
    return out


def build(ftl_cls=FlexFtl, buffer_pages=32, ftl_config=None, **ftl_kwargs):
    """A small system on :data:`GEOMETRY`."""
    return build_small_system(
        ftl_cls, GEOMETRY, buffer_pages=buffer_pages,
        ftl_config=ftl_config, **ftl_kwargs)


def small_run(ftl_cls=FlexFtl, ops=150, seed=3, step=False,
              **build_kwargs):
    """Fill a small device, then run a mixed closed loop."""
    sim, array, buffer, ftl, controller = build(ftl_cls, **build_kwargs)
    span = int(ftl.logical_pages * 0.8)
    fill = ClosedLoopHost(sim, controller, [sequential_fill(span)])
    fill.start()
    sim.run()
    host = ClosedLoopHost(sim, controller, mixed_streams(span, ops, seed))
    host.start()
    order = stepped(sim) if step else None
    sim.run()
    return outcome(sim, ftl, controller.stats), order


# ----------------------------------------------------------------------
# the golden contracts


@pytest.mark.slow
def test_golden_fig8(use_core, monkeypatch):
    """Golden fig8 (scale 0.05): same report, and per cell the same
    SimStats, counters and processed events on both cores."""
    def run():
        built = []
        build = runner.build_system

        def capture(*args, **kwargs):
            system = build(*args, **kwargs)
            built.append(system)
            return system

        monkeypatch.setattr(runner, "build_system", capture)
        result = fig8.run_fig8(workloads=["Varmail", "OLTP"], scale=0.05,
                               utilization=0.75, seed=1,
                               engine=EngineOptions())
        monkeypatch.setattr(runner, "build_system", build)
        text = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        cells = [outcome(sim, ftl, controller.stats)
                 for sim, _, _, ftl, controller in built]
        return text, cells

    oracle, native, coverage = both(use_core, run)
    assert oracle[0] == GOLDEN_FIG8.read_text()
    assert native == oracle
    assert coverage["native"] > 0


@pytest.mark.parametrize("name", sorted(TRACE_SCENARIOS))
def test_golden_traces(use_core, tmp_path, name):
    """The golden trace scenarios (tracer installed) are identical on
    both cores; the tracer patches nothing the core must leave to
    Python."""
    def run():
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        return TRACE_SCENARIOS[name](out).read_text()

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["python"]["execute"] == 0


def test_fleet_fingerprint_in_quanta(use_core):
    """A 64-device fleet advanced in ``max_events`` quanta."""
    fleet = FleetSpec(devices=64, ops_per_device=40, seed=5,
                      config=fleet_config())

    def run():
        served = run_fleet(fleet, jobs=1, quantum=97)
        return (served.report.fingerprint(),
                json.dumps(served.report.to_dict(), sort_keys=True))

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0


def test_tenanted_fleet_fingerprint(use_core):
    """pageFTL devices behind the DRR arbiter: the QoS host's handlers,
    the controller and the kernel all run natively."""
    fleet = FleetSpec(devices=8, ftl_name="pageFTL", ops_per_device=60,
                      tenants=2, arbiter="drr", seed=2,
                      config=fleet_config())

    def run():
        return run_fleet(fleet, jobs=1, quantum=128).report.fingerprint()

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0 and coverage["python"]["handler"] == 0


def test_snapshot_bytes(use_core):
    """A device pickled mid-run (as fleet checkpoints do) is the same
    byte string on both cores, and resumes to the same result."""
    def run():
        config = runner.ExperimentConfig(geometry=GEOMETRY)
        sim, _, _, ftl, controller = runner.build_system("flexFTL", config)
        scenario = make_preset("oltp", footprint=int(ftl.logical_pages
                                                     * 0.7),
                               total_ops=300, seed=2)
        host = StreamingClosedLoopHost(sim, controller,
                                       scenario.op_streams(),
                                       scenario=scenario)
        host.start()
        sim.run(max_events=1500)
        blob = pickle.dumps((sim, controller, host),
                            protocol=pickle.HIGHEST_PROTOCOL)
        sim, controller, _ = pickle.loads(blob)
        sim.run()
        return blob, outcome(sim, controller.ftl, controller.stats)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0


# ----------------------------------------------------------------------
# the kernel


@pytest.mark.parametrize("seed", range(6))
def test_kernel_interleavings(use_core, seed):
    """Seeded schedule / cancel / partial-run / run-until interleavings
    (far-future timers included) fire identically."""
    def run():
        return drive(Simulator, seed)

    oracle, native, _ = both(use_core, run)
    assert native == oracle


def test_run_until(use_core):
    def run():
        sim, _, _, ftl, controller = build(buffer_pages=16)
        host = ClosedLoopHost(sim, controller,
                              mixed_streams(200, 120, seed=11))
        host.start()
        marks = []
        until = 0.0
        while sim.pending:
            until += 7.3e-4
            sim.run(until=until)
            marks.append((sim.now, sim.processed, sim.pending))
        return outcome(sim, ftl, controller.stats), marks

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0


def test_max_events_and_integer_times(use_core):
    """``max_events`` quanta, int timestamps and cancelled events."""
    def run():
        sim, _, _, ftl, controller = build(buffer_pages=16)
        fired = []
        host = ClosedLoopHost(sim, controller,
                              mixed_streams(200, 60, seed=4))
        host.start()
        for t in (1, 2, 3):
            sim.schedule_at(t, fired.append, t)
        sim.schedule(0.01, fired.append, "cancelled").cancel()
        steps = []
        sim.run(until=0)  # an int bound
        sim.run(max_events=7.0)  # a whole float counts like an int
        while sim.pending:
            sim.run(max_events=13)
            steps.append((sim.now, sim.processed))
        return outcome(sim, ftl, controller.stats), fired, steps

    oracle, native, _ = both(use_core, run)
    assert native == oracle


def test_narrow_calendar(use_core):
    """A calendar so narrow that NAND completions land in the overflow
    heap and migrate back on every bucket activation."""
    def run():
        sim, array, buffer, ftl, _ = build_small_system(
            FlexFtl, GEOMETRY, buffer_pages=16)
        sim = Simulator(bucket_width=1e-4, span=2)
        controller = StorageController(
            sim, array, ftl, buffer, SimStats(page_size=GEOMETRY.page_size))
        host = ClosedLoopHost(sim, controller,
                              mixed_streams(200, 80, seed=13))
        host.start()
        order = stepped(sim)
        return outcome(sim, ftl, controller.stats), order

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0


# ----------------------------------------------------------------------
# the controller and the FTL


def test_pop_order(use_core):
    oracle, native, coverage = both(use_core,
                                    lambda: small_run(step=True))
    assert native == oracle
    assert coverage["native"] > 0


@pytest.mark.parametrize("ftl_cls,options", [
    (FlexFtl, dict),
    (FlexFtl, lambda: {"parity_interval": 4}),
    (FlexFtl, lambda: {"predictor": EwmaBurstPredictor()}),
    (FlexFtl, lambda: {"ftl_config": FtlConfig(
        gc_policy="cost_benefit", wear_aware_allocation=True)}),
    (FlexFtl, lambda: {"ftl_config": FtlConfig(bg_gc_enabled=False)}),
    (FlexFtl, lambda: {"buffer_pages": 4}),
    (PageFtl, dict),
    (ParityFtl, dict),
    (RtfFtl, dict),
], ids=["flex", "flex-parity-interval", "flex-predictor",
        "flex-cost-benefit", "flex-no-bg-gc", "flex-tiny-buffer",
        "page", "parity", "rtf"])
def test_ftl_variants(use_core, ftl_cls, options):
    def run():
        return small_run(ftl_cls, ops=250, seed=7, **options())

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0


def test_streaming_scenario_host(use_core):
    """The scenario host (the path the benchmark and fig8 take)."""
    def run():
        config = runner.ExperimentConfig(geometry=GEOMETRY)
        sim, _, _, ftl, controller = runner.build_system("flexFTL", config)
        footprint = int(ftl.logical_pages * 0.75)
        runner.warmup_device(sim, controller, ftl, config,
                             footprint=footprint)
        scenario = make_preset("ntrx", footprint=footprint,
                               total_ops=400, seed=9)
        host = StreamingClosedLoopHost(sim, controller,
                                       scenario.op_streams(),
                                       scenario=scenario)
        host.start()
        sim.run()
        return outcome(sim, ftl, controller.stats), host.issued

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert sum(coverage["python"].values()) == 0


def test_open_loop_trace_replay(use_core):
    """Open-loop arrivals: a Python host handler between native
    completions."""
    def run():
        sim, _, _, ftl, controller = build(buffer_pages=16)
        rng = random.Random(5)
        trace = [Request(i * 1.5e-4, rng.choice(list(RequestKind)),
                         rng.randrange(150), rng.randint(1, 2))
                 for i in range(300)]
        TraceReplayHost(sim, controller, trace).start()
        sim.run()
        return outcome(sim, ftl, controller.stats)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0 and coverage["python"]["handler"] > 0


def test_coalescing_buffer(use_core):
    """A coalescing write buffer drains through the Python general
    form."""
    def run():
        sim, _, buffer, ftl, controller = build(buffer_pages=16)
        buffer.coalesce = True
        host = ClosedLoopHost(sim, controller,
                              mixed_streams(60, 120, seed=2))
        host.start()
        sim.run()
        return outcome(sim, ftl, controller.stats), buffer.coalesced_writes

    oracle, native, _ = both(use_core, run)
    assert native == oracle


def test_power_loss_mid_run(use_core):
    """A power cut halts the queue mid-run; recovery re-drives work
    through the FTL's fault path and the run resumes."""
    def run():
        sim, _, _, ftl, controller = build()
        host = ClosedLoopHost(sim, controller, [
            [StreamOp(RequestKind.WRITE, (i * 3) % 500, 1)
             for i in range(900)]])
        host.start()
        cut = ScheduledPowerLoss(sim, controller, at_times=[0.01, 0.02])
        first = stepped(sim)
        recovery = recover_after_power_loss(controller, cut.reports[0])
        host.resume()
        cut.arm_next()
        sim.run()
        recover_after_power_loss(controller, cut.reports[1])
        host.resume()
        second = stepped(sim)
        return (outcome(sim, ftl, controller.stats), first, second,
                recovery.clean, len(cut.reports))

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[4] == 2
    assert coverage["native"] > 0


def test_fault_injector_attached_mid_run(use_core):
    """Completions after the attach take the Python path."""
    def run():
        sim, _, _, ftl, controller = build(buffer_pages=16)
        plan = FaultPlan(events=(
            FaultEvent("program_fail", chip=0, op_index=30),
            FaultEvent("read_fault", chip=1, op_index=25),
            FaultEvent("program_fail", chip=3, op_index=40),
        ))
        injector = FaultInjector(plan, page_size=GEOMETRY.page_size)
        host = ClosedLoopHost(sim, controller,
                              mixed_streams(200, 150, seed=6))
        host.start()
        sim.schedule(3e-3, controller.attach_fault_injector, injector)
        sim.run()
        return outcome(sim, ftl, controller.stats)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0 and coverage["python"]["injector"] > 0


def test_tlc_array(use_core):
    """The TLC array and FTLs: NAND calls through the controller's
    bound methods reach the TLC overrides."""
    def run():
        results = []
        for name in ("tlc-flexFTL", "tlc-pageFTL"):
            sim, array, buffer, ftl, _ = build_tlc_system(name)
            controller = StorageController(
                sim, array, ftl, buffer,
                SimStats(page_size=array.geometry.page_size))
            span = int(ftl.logical_pages * 0.7)
            fill = ClosedLoopHost(sim, controller, [sequential_fill(span)])
            fill.start()
            sim.run()
            host = ClosedLoopHost(sim, controller,
                                  mixed_streams(span, 150, seed=1))
            host.start()
            sim.run()
            results.append(outcome(sim, ftl, controller.stats))
        return results

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0


def test_execute_patched_mid_run(use_core):
    """An ``OpLog`` attached from a completion hook: the pump already
    running natively must call the patched ``_execute`` from then on."""
    def run():
        sim, _, _, ftl, controller = build(buffer_pages=16)
        logs = []

        def hook(request, now):
            # a read completes in _on_op_done ahead of the pump
            if not logs and request.kind is RequestKind.READ \
                    and controller.stats.completed_requests >= 40:
                logs.append(OpLog.attach(controller))

        controller.completion_hook = hook
        host = ClosedLoopHost(sim, controller,
                              mixed_streams(200, 80, seed=14))
        host.start()
        sim.run()
        records = [(r.time, r.chip_id, r.kind, r.tag)
                   for r in logs[0].records]
        return outcome(sim, ftl, controller.stats), records

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0 and coverage["python"]["execute"] > 0


def test_controller_subclass_and_bare_trace(use_core):
    """A controller subclass keeps Python; a trace reference without an
    installed tracer receives the same scenario-phase events from the
    core's host issue as from Python's."""
    class Recorder:
        def __init__(self):
            self.events = []

        def event(self, kind, **fields):
            self.events.append((kind, sorted(fields.items())))

    class Controller(StorageController):
        pass

    def run():
        results = []
        for make in (Controller, StorageController):
            sim, array, buffer, ftl, _ = build_small_system(
                FlexFtl, GEOMETRY, buffer_pages=16)
            controller = make(sim, array, ftl, buffer,
                              SimStats(page_size=GEOMETRY.page_size))
            recorder = controller._trace = Recorder()
            scenario = make_preset("varmail", footprint=150,
                                   total_ops=200, seed=5)
            host = StreamingClosedLoopHost(sim, controller,
                                           scenario.op_streams(),
                                           scenario=scenario)
            host.start()
            sim.run()
            results.append((outcome(sim, ftl, controller.stats),
                            recorder.events))
        return results

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["python"]["subclass"] > 0 and coverage["native"] > 0
    assert all(recorder for _, recorder in native)


def drr_qos_run():
    """A pageFTL device behind a DRR-arbitrated two-tenant QoS host."""
    from tests.test_native_qos import serve
    return serve(arbiter="drr", ops=10)


@pytest.mark.parametrize("owner,name,workload", [
    (StorageController, "_on_op_done", None),
    (PolicyManager, "choose", None),
    (TwoPhaseBlockManager, "take_msb", None),
    (DeficitRoundRobinArbiter, "select", drr_qos_run),
    (PageFtl, "_allocate", lambda: small_run(PageFtl, ops=60)),
    (BaseFtl, "_host_write_op", None),
], ids=["on_op_done", "choose", "take_msb", "select", "allocate",
        "host_write_op"])
def test_patched_class_keeps_python(use_core, monkeypatch, owner, name,
                                    workload):
    """Wrapping a method the core replaces, or one the Python form of a
    replaced method calls (as a profiler does), keeps the whole run on
    Python: the wrapper sees as many calls as on the oracle."""
    stock = getattr(owner, name)
    calls = []

    def wrapped(self, *args, **kwargs):
        calls.append(args)
        return stock(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)

    def run():
        del calls[:]
        return (workload or (lambda: small_run(ops=60)))(), len(calls)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] == 0 and coverage["python"]["patched"] > 0
    assert oracle[1] > 0


# ----------------------------------------------------------------------
# armed runs: the tracer and the physics engine on the core


def armed_system(ops=300, seed=3, capacity=None, geometry=GEOMETRY):
    """A warmed flexFTL device with history, a tracer installed over
    the warm-up and the physics engine attached at a worn, aged stress
    point (P/E 6000, one year of retention), as the benchmark's
    ``webserver_armed`` builds it; the webserver host is not started."""
    config = runner.ExperimentConfig(geometry=geometry, track_history=True)
    sim, _, _, ftl, controller = runner.build_system("flexFTL", config)
    footprint = int(ftl.logical_pages * 0.75)
    scenario = make_preset("webserver", footprint=footprint,
                           total_ops=ops, seed=seed)
    tracer = Tracer(capacity=capacity)
    tracer.install(controller)
    tracer.begin_phase("warmup")
    runner.warmup_device(sim, controller, ftl, config, footprint=footprint)
    _, stats = runner.begin_measured_phase(controller, ftl, config)
    tracer.begin_phase("measured")
    engine = PhysicsEngine(PhysicsConfig(
        seed=seed, pe_baseline=6000, retention_baseline_hours=8760.0))
    controller.attach_physics(engine)
    ftl.fault_stats = stats.faults
    host = StreamingClosedLoopHost(sim, controller, scenario.op_streams(),
                                   scenario=scenario)
    return sim, ftl, controller, stats, tracer, engine, host


def trace_bytes(tracer, path):
    """``tracer.write_jsonl`` output of the detached tracer (not
    finished: ``profile.phase`` events carry wall-clock times)."""
    tracer.detach()
    tracer.write_jsonl(str(path))
    return path.read_bytes()


def test_armed_webserver(use_core, tmp_path):
    """Tracer plus physics: SimStats, FTL counters, the engine's
    summary, the event pop order and the JSONL trace bytes agree, and
    the core ran the completions and issues itself."""
    def run():
        sim, ftl, controller, stats, tracer, engine, host = armed_system(
            ops=600)
        NATIVE.reset_coverage()
        host.start()
        order = []
        while sim._ensure_head() and len(order) < 400:
            entry = sim._active[sim._active_pos]
            order.append((entry[0], entry[2]))
            sim.run(max_events=1)
        sim.run()
        blob = trace_bytes(tracer, tmp_path / f"{len(order)}-{sim.now}")
        # the engine's per-block history: erases reset it
        blocks = sorted(engine._blocks)
        return (outcome(sim, ftl, stats), order,
                json.dumps(engine.summary(), sort_keys=True), blob, blocks)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert json.loads(oracle[0])["counters"]["erases"] > 0
    assert json.loads(oracle[2])["read_errors"] > 0
    assert b'"ev":"2po.lsb_complete"' in oracle[3]
    assert b'"ev":"scenario.phase"' in oracle[3]
    assert "physics" not in coverage["python"]
    assert coverage["python"]["execute"] == 0
    assert coverage["native"] > 0


def test_armed_ring_capacity(use_core, tmp_path):
    """A ring-capacity tracer trims at the same points on both cores."""
    def run():
        sim, ftl, controller, stats, tracer, engine, host = armed_system(
            ops=2000, capacity=64)
        # the buffer's length at every request completion: the ring
        # trims at the same ops
        lengths = []
        controller.completion_hook = \
            lambda request, now: lengths.append(len(tracer._op_raw))
        host.start()
        sim.run()
        blob = trace_bytes(tracer, tmp_path / f"ring-{sim.now}")
        return (outcome(sim, ftl, stats), tracer.dropped_ops,
                tracer.op_count, blob, lengths)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[1] > 0 and oracle[2] == 64
    # the hot path trimmed (not only the final observation)
    assert max(oracle[4]) < oracle[1] * 8
    assert coverage["native"] > 0


def test_tracer_installed_and_detached_mid_run(use_core):
    """A completion hook installs a tracer, and a later one detaches
    it: the core picks the capture up and drops it at the same ops."""
    def run():
        sim, _, _, ftl, controller = build(buffer_pages=16)
        tracer = Tracer()

        def hook(request, now):
            done = controller.stats.completed_requests
            if done == 40:
                tracer.install(controller)
            elif done == 160:
                tracer.detach()

        controller.completion_hook = hook
        host = ClosedLoopHost(sim, controller,
                              mixed_streams(200, 80, seed=12))
        host.start()
        sim.run()
        records = [(event.kind, event.time, sorted(event.fields.items()))
                   for event in tracer.events()]
        return outcome(sim, ftl, controller.stats), records

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert any(kind == "op.issue" for kind, _, _ in oracle[1])
    assert coverage["native"] > 0 and coverage["python"]["execute"] == 0


def test_oplog_with_tracer_keeps_python(use_core):
    """An ``OpLog`` patches ``_execute`` on the instance: completions
    fall back with reason ``execute``, and the stock ``_execute`` the
    log wraps still feeds the tracer."""
    def run():
        sim, _, _, ftl, controller = build(buffer_pages=16)
        tracer = Tracer().install(controller)
        log = OpLog.attach(controller)
        host = ClosedLoopHost(sim, controller,
                              mixed_streams(200, 60, seed=8))
        host.start()
        sim.run()
        tracer.detach()
        records = [(r.time, r.chip_id, r.kind, r.tag) for r in log.records]
        events = [(event.kind, event.time, sorted(event.fields.items()))
                  for event in tracer.events()]
        return outcome(sim, ftl, controller.stats), records, events

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert len(oracle[1]) == sum(1 for kind, _, _ in oracle[2]
                                 if kind == "op.issue")
    assert coverage["python"]["execute"] > 0


def test_armed_run_coverage_contract(use_core):
    """Seed 1 at scale 0.05 of the benchmark's ``webserver_armed``: no
    completion falls back for the physics engine or the tracer, at
    least 95% of events run natively, and the only Python handlers
    left are the retry ladder's ``_finish_read_recovery`` events."""
    use_core(True)
    sim, ftl, controller, stats, tracer, engine, host = armed_system(
        ops=2000, seed=1, geometry=runner.ExperimentConfig().geometry)
    NATIVE.reset_coverage()
    host.start()
    sim.run()
    coverage = NATIVE.coverage()
    tracer.detach()
    python = coverage["python"]
    assert "physics" not in python and "trace" not in python
    assert python["execute"] == 0
    total = coverage["native"] + sum(python.values())
    assert coverage["native"] >= 0.95 * total
    assert engine.read_errors > 0
    assert python["handler"] == engine.read_errors
    assert sum(python.values()) == python["handler"]


# ----------------------------------------------------------------------
# the idle-time GC query


class CountingPredictor(EwmaBurstPredictor):
    """A burst predictor that counts its demand estimates."""

    def __init__(self):
        super().__init__()
        self.estimates = 0

    def predicted_burst_pages(self, now=None):
        self.estimates += 1
        return super().predicted_burst_pages(now)


class IdleRecoveryPageFtl(PageFtl):
    """pageFTL whose host-driven ``next_op`` leaves the recovery backlog
    alone, so only the idle-time query and ``background_op`` see it."""

    def next_op(self, chip_id, now):
        state = self.chips[chip_id]
        if state.pending:
            return state.pending.popleft()
        if state.gc is not None and not state.gc.background:
            return self._gc_step(chip_id)
        return self._host_write_op(chip_id, now)


class QueriedFlexFtl(FlexFtl):
    """flexFTL whose idle-time query is overridden (and counted)."""

    queries = 0

    def wants_background_gc(self, chip_id):
        self.queries += 1
        return super().wants_background_gc(chip_id)


def count_calls(ftl, name, counts):
    """Patch ``ftl.name`` on the instance to count its calls."""
    method = getattr(ftl, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return method(*args, **kwargs)

    setattr(ftl, name, counted)


def idle_run(ftl_cls=FlexFtl, patch=None, count=True, **build_kwargs):
    """``small_run`` returning the FTL too (after ``patch(ftl)``).  The
    outcome includes how often the idle-time work and the victim scan
    were called: a query that answers True where the stock one answers
    False shows there even when the work it asks for comes to
    nothing.  ``count=False`` leaves both methods stock, so the core
    runs them natively."""
    sim, array, buffer, ftl, controller = build(ftl_cls, **build_kwargs)
    if patch is not None:
        patch(ftl)
    counts = {}
    if count:
        count_calls(ftl, "background_op", counts)
        count_calls(ftl, "_select_victim", counts)
    span = int(ftl.logical_pages * 0.8)
    fill = ClosedLoopHost(sim, controller, [sequential_fill(span)])
    fill.start()
    sim.run()
    host = ClosedLoopHost(sim, controller, mixed_streams(span, 250, seed=7))
    host.start()
    sim.run()
    return (outcome(sim, ftl, controller.stats),
            sorted(counts.items())), ftl


def test_overridden_query_is_called(use_core):
    """A subclass override and an instance patch of
    ``wants_background_gc`` are both still called, as often as on
    Python."""
    calls = []

    def patch(ftl):
        stock = ftl.wants_background_gc

        def counted(chip_id):
            calls.append(chip_id)
            return stock(chip_id)

        ftl.wants_background_gc = counted

    def subclass(ftl):
        ftl.__class__ = QueriedFlexFtl

    def run():
        subclassed, ftl = idle_run(patch=subclass)
        del calls[:]
        patched, _ = idle_run(patch=patch)
        return subclassed, ftl.queries, patched, len(calls)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[1] > 0 and oracle[3] > 0
    assert coverage["native"] > 0


#: background GC starts below 40% free blocks (the default 10% is one
#: block on the small test geometry, so idle-time GC would never run)
EAGER_GC = {"gc_threshold_fraction": 0.4}


EAGER_CASES = pytest.mark.parametrize("ftl_cls,config", [
    (FlexFtl, {}),
    (PageFtl, {}),
    (FlexFtl, {"bg_gc_min_invalid_fraction": 0.45}),
    (FlexFtl, {"bg_gc_enabled": False}),
    (PageFtl, {"bg_gc_enabled": False}),
], ids=["flex", "page", "flex-min-invalid", "flex-bg-off", "page-bg-off"])


def eager_background_gc(use_core, ftl_cls, config, count):
    def run():
        result, ftl = idle_run(ftl_cls, count=count, ftl_config=FtlConfig(
            **EAGER_GC, **config))
        return result, ftl.background_gcs

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    if config.get("bg_gc_enabled", True):
        assert oracle[1] > 0
    else:
        assert oracle[1] == 0
    assert coverage["native"] > 0


@EAGER_CASES
def test_query_eager_background_gc(use_core, ftl_cls, config):
    """The query at a threshold idle time reaches: background GCs run
    (or, with background GC off, do not) as on Python, with the same
    calls of ``background_op`` and the victim scan (counted through
    instance patches, which the core calls)."""
    eager_background_gc(use_core, ftl_cls, config, count=True)


@EAGER_CASES
def test_native_background_op(use_core, ftl_cls, config):
    """The same runs with ``background_op`` and the victim scan left
    stock, so the core runs both itself."""
    eager_background_gc(use_core, ftl_cls, config, count=False)


def test_query_with_a_predictor(use_core):
    """flexFTL with a predictor: the query reaches
    ``_predictor_wants_gc`` (the predictor's estimates count it) as
    often as on Python."""
    def run():
        predictor = CountingPredictor()
        result, ftl = idle_run(predictor=predictor,
                               ftl_config=FtlConfig(**EAGER_GC))
        stock_predictor = CountingPredictor()
        stock, _ = idle_run(predictor=stock_predictor, count=False,
                            ftl_config=FtlConfig(**EAGER_GC))
        return (result, predictor.estimates, ftl.background_gcs, stock,
                stock_predictor.estimates)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[1] > 0 and oracle[4] > 0
    assert coverage["native"] > 0


def bursty_streams(span, seed, streams=4, bursts=10, size=20, gap=0.1):
    """Write bursts separated by idle gaps longer than the burst
    predictor's gap threshold."""
    rng = random.Random(seed)
    return [[StreamOp(RequestKind.WRITE, rng.randrange(span), 1,
                      think_after=gap if index == size - 1 else 0.0)
             for _ in range(bursts) for index in range(size)]
            for _ in range(streams)]


def test_predictor_driven_background_gc(use_core):
    """Bursty writes with the default threshold (one block here, so the
    base condition never asks): every background GC is the predictor's
    doing, through the query and flexFTL's ``background_op``, both
    stock and run by the core."""
    def run():
        predictor = CountingPredictor()
        sim, _, _, ftl, controller = build(predictor=predictor)
        span = int(ftl.logical_pages * 0.8)
        fill = ClosedLoopHost(sim, controller, [sequential_fill(span)])
        fill.start()
        sim.run()
        host = ClosedLoopHost(sim, controller, bursty_streams(span, 7))
        host.start()
        sim.run()
        return (outcome(sim, ftl, controller.stats), predictor.estimates,
                ftl.background_gcs)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[2] > 0
    assert coverage["native"] > 0 and coverage["python"]["patched"] == 0


@pytest.mark.parametrize("recovery", ["next_op", "idle"])
def test_query_with_pending_fault_work(use_core, recovery):
    """A grown-bad block retired mid-run leaves salvage work; with
    background GC off the idle-time query still reports it, which is
    the only way it drains when ``next_op`` leaves it alone."""
    def run():
        ftl_cls = PageFtl if recovery == "idle" else FlexFtl
        sim, _, _, ftl, controller = build(
            ftl_cls, buffer_pages=16,
            ftl_config=FtlConfig(bg_gc_enabled=False))
        if recovery == "idle":
            ftl.__class__ = IdleRecoveryPageFtl
            controller._ftl_next_op = ftl.next_op
        span = int(ftl.logical_pages * 0.8)
        fill = ClosedLoopHost(sim, controller, [sequential_fill(span)])
        fill.start()
        sim.run()
        ftl.fault_stats = controller.ensure_fault_stats()
        block = min(ftl.chips[0].full_blocks)
        bad = FlashOp(OpKind.PROGRAM, PhysicalPageAddress(0, 0, block, 0))
        host = ClosedLoopHost(sim, controller,
                              mixed_streams(span, 120, seed=9))
        host.start()
        sim.schedule(2e-3, ftl.handle_grown_bad, 0, bad)
        sim.run()
        return (outcome(sim, ftl, controller.stats),
                ftl.chips[0].fault_work is None)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert json.loads(oracle[0])["stats"]["faults"]["grown_bad_blocks"] == 1
    assert oracle[1]  # the salvage drained
    assert coverage["native"] > 0


def test_pageftl_fleet(use_core):
    """Sixteen pageFTL devices (the stock base query on another FTL)."""
    fleet = FleetSpec(devices=16, ftl_name="pageFTL", preset="oltp",
                      ops_per_device=80, seed=4, config=fleet_config())

    def run():
        served = run_fleet(fleet, jobs=1, quantum=256)
        return (served.report.fingerprint(),
                json.dumps(served.report.to_dict(), sort_keys=True))

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0


def test_gc_erase_of_a_live_block_raises(use_core):
    """The native erase step delegates MappingTable.note_block_erased's
    check: erasing a victim that still holds valid pages raises the
    same ValueError on both cores."""
    def run():
        sim, _, _, ftl, controller = build(PageFtl)
        fill = ClosedLoopHost(sim, controller, [sequential_fill(300)])
        fill.start()
        sim.run()
        victim = min(ftl.chips[0].full_blocks)
        ftl._begin_gc(0, victim, background=False)
        ftl.chips[0].gc.valid_lpns.clear()  # "drained", pages still valid
        host = ClosedLoopHost(sim, controller,
                              [[StreamOp(RequestKind.WRITE, 0, 1)]])
        host.start()
        with pytest.raises(ValueError) as caught:
            sim.run()
        return str(caught.value), outcome(sim, ftl, controller.stats)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert "valid pages" in oracle[0]
    assert coverage["native"] > 0


# ----------------------------------------------------------------------
# the NAND array


def nand_system(scheme, track_history, store_data, array_cls=NandArray):
    """A pageFTL system over a fresh array: the FTL only hands the ops
    a test queues on its chips' ``pending`` to the controller."""
    sim = Simulator()
    array = array_cls(GEOMETRY, scheme=scheme, store_data=store_data,
                      track_history=track_history)
    buffer = WriteBuffer(16)
    ftl = PageFtl(array, buffer, FtlConfig())
    controller = StorageController(sim, array, ftl, buffer,
                                   SimStats(page_size=GEOMETRY.page_size))
    return sim, array, ftl, controller


def kick(sim, controller):
    """Start the pump from a native event: one read of a never-written
    page, which completes at once and pumps every idle chip."""
    host = ClosedLoopHost(sim, controller, [
        [StreamOp(RequestKind.READ, 0, 1)]])
    host.start()


def legal_programs(rng, scheme, array, count):
    """``count`` seeded program ops, each legal under ``scheme`` at the
    point its chip reaches it: per block, a random legal order from the
    block's current state (blocks opened fresh when one fills)."""
    wordlines = GEOMETRY.pages_per_block // 2
    cursors = {}
    ops = []
    for _ in range(count):
        chip_id = rng.randrange(GEOMETRY.total_chips)
        channel, chip = divmod(chip_id, GEOMETRY.chips_per_channel)
        block = rng.randrange(3)
        key = (chip_id, block)
        if key not in cursors:
            states = array.chips[chip_id].blocks[block]._states
            order = [page_index(wordline, ptype) for wordline, ptype in
                     random_legal_order(rng.randrange(1 << 30), wordlines,
                                        scheme)]
            done = {page for page in range(len(states))
                    if states[page] != ERASED_CODE}
            if done:
                # a block touched earlier (a power cut) is left alone
                continue
            cursors[key] = iter(order)
        page = next(cursors[key], None)
        if page is None:
            continue
        data = bytes([rng.randrange(256)]) * 4 if array.store_data else None
        ops.append(FlashOp(OpKind.PROGRAM, PhysicalPageAddress(
            channel, chip, block, page), tag="gc", data=data))
        if rng.random() < 0.3:
            ops.append(FlashOp(OpKind.READ, PhysicalPageAddress(
                channel, chip, block, page), tag="gc"))
    return ops


def queue(ftl, ops):
    for op in ops:
        chip_id = (op.addr.channel * GEOMETRY.chips_per_channel
                   + op.addr.chip)
        ftl.chips[chip_id].pending.append(op)


def fault_op(rng, fault, scheme, array, destroyed):
    """The op that ends a sequence: an illegal or repeated program, or
    a read of an erased or a destroyed page (None: no fault)."""
    pages = [(chip_id, block, page)
             for chip_id, chip in enumerate(array.chips)
             for block, blk in enumerate(chip.blocks)
             for page in range(len(blk._states))]
    rng.shuffle(pages)

    def state(chip_id, block, page):
        return array.chips[chip_id].blocks[block]._states[page]

    def addr(chip_id, block, page):
        channel, chip = divmod(chip_id, GEOMETRY.chips_per_channel)
        return PhysicalPageAddress(channel, chip, block, page)

    def violates(chip_id, block, page, under=scheme):
        blk = array.chips[chip_id].blocks[block]
        wordline, ptype = divmod(page, 2)
        return bool(constraint_violations(blk.is_programmed, blk.wordlines,
                                          wordline, PageType(ptype), under))

    if fault == "destroyed_read" and destroyed:
        return FlashOp(OpKind.READ, rng.choice(destroyed), tag="gc")
    if fault == "double":
        # a program the scheme allows, of a page already programmed
        for where in pages:
            if state(*where) == PROGRAMMED_CODE and not violates(*where):
                return FlashOp(OpKind.PROGRAM, addr(*where), tag="gc")
    if fault == "illegal" and scheme is not SequenceScheme.NONE:
        illegal = [where for where in pages
                   if state(*where) == ERASED_CODE and violates(*where)]
        # under FPS, prefer a program only FPS's own constraint forbids
        illegal.sort(key=lambda where: violates(*where, SequenceScheme.RPS))
        if illegal:
            return FlashOp(OpKind.PROGRAM, addr(*illegal[0]), tag="gc")
    if fault in ("erased_read", "destroyed_read", "illegal"):
        for where in pages:
            if state(*where) == ERASED_CODE:
                return FlashOp(OpKind.READ, addr(*where), tag="gc")
    return None


def array_state(array):
    """Everything the array holds, floats as their exact hex form."""
    return [
        (chip.lsb_programs, chip.msb_programs, chip.reads, chip.erases,
         chip.busy_time.hex(),
         [(bytes(blk._states), blk._used, blk.erase_count,
           list(blk.program_history), blk._data)
          for blk in chip.blocks])
        for chip in array.chips
    ]


def nand_sequence(seed, scheme, track_history, store_data, fault,
                  array_cls=NandArray):
    """A seeded sequence of NAND ops through the controller: legal
    programs and reads, a power cut mid-way, more legal ops with an
    erase, then ``fault``.  Returns the exception (type and message),
    the array state, the run's end and the number of NAND callouts."""
    rng = random.Random(seed)
    _native.reset_coverage()
    sim, array, ftl, controller = nand_system(scheme, track_history,
                                              store_data, array_cls)
    queue(ftl, legal_programs(rng, scheme, array, 160))
    cut = ScheduledPowerLoss(sim, controller, rng.uniform(4e-3, 12e-3))
    kick(sim, controller)
    sim.run()
    destroyed = list(cut.report.destroyed_pages) if cut.fired else []
    controller.reset_after_power_loss()
    for state in ftl.chips:
        state.pending.clear()
    ops = legal_programs(rng, scheme, array, 60)
    ops.append(FlashOp(OpKind.ERASE, PhysicalPageAddress(0, 0, 5, 0),
                       tag="gc"))
    op = fault_op(rng, fault, scheme, array, destroyed)
    if op is not None:
        ops.append(op)
    queue(ftl, ops)
    kick(sim, controller)
    error = None
    try:
        sim.run()
    except Exception as exc:  # the fault op raises the historical error
        error = (type(exc).__name__, str(exc))
    callouts = None
    if _native.core is not None:
        callouts = NATIVE.coverage()["callouts"]["nand"]
    return (error, array_state(array), sim.now, sim.processed,
            len(destroyed)), callouts


FAULTS = ("none", "illegal", "double", "erased_read", "destroyed_read")


@pytest.mark.parametrize("scheme", list(SequenceScheme),
                         ids=lambda scheme: scheme.value)
@pytest.mark.parametrize("track_history,store_data",
                         [(True, False), (False, True)],
                         ids=["history", "data"])
def test_nand_array_differential(use_core, scheme, track_history,
                                 store_data):
    """Seeded NAND op sequences on the stock array: the same
    exception (type and message), page states, used counts, payloads,
    program histories, chip counters and busy times, bit for bit.  On
    the core the only NAND callout is the failing op's."""
    for index, fault in enumerate(FAULTS):
        seed = 100 + 10 * index + len(scheme.value)

        def run():
            return nand_sequence(seed, scheme, track_history, store_data,
                                 fault)

        (oracle, _), (native, callouts), _ = both(use_core, run)
        assert native == oracle, fault
        error = oracle[0]
        assert oracle[4] > 0  # the cut destroyed pages
        if fault == "none":
            assert error is None and callouts == 0
        else:
            expected = {
                "illegal": "ProgramSequenceError",
                "double": "PageStateError",
                "erased_read": "EccUncorrectableError",
                "destroyed_read": "EccUncorrectableError",
            }[fault]
            if scheme is SequenceScheme.NONE and fault == "illegal":
                expected = "EccUncorrectableError"  # nothing is illegal
            assert error is not None and error[0] == expected, error
            assert callouts == 1
        if fault == "destroyed_read":
            assert "destroyed" in error[1]


@pytest.mark.parametrize("scheme", list(SequenceScheme),
                         ids=lambda scheme: scheme.value)
def test_nand_legality_walk(use_core, scheme):
    """Seeded, scheme-ignorant programs (about half break an ordering
    constraint or repeat a page), reads and erases, one op per run on
    one device: each op's outcome (its exception, or none), then the
    whole array, agree on both cores."""
    def run():
        rng = random.Random(31)
        sim, array, ftl, controller = nand_system(scheme, True, False)
        results = []
        for _ in range(400):
            chip_id = rng.randrange(GEOMETRY.total_chips)
            channel, chip = divmod(chip_id, GEOMETRY.chips_per_channel)
            addr = PhysicalPageAddress(channel, chip, rng.randrange(3),
                                       rng.randrange(GEOMETRY.pages_per_block))
            draw = rng.random()
            kind = (OpKind.ERASE if draw < 0.03 else OpKind.READ
                    if draw < 0.2 else OpKind.PROGRAM)
            queue(ftl, [FlashOp(kind, addr, tag="gc")])
            kick(sim, controller)
            try:
                sim.run()
                results.append(None)
            except Exception as exc:  # the historical error, per op
                results.append((type(exc).__name__, str(exc)))
        return results, array_state(array)

    oracle, native, _ = both(use_core, run)
    assert native == oracle
    errors = {error[0] for error in oracle[0] if error is not None}
    expected = {"PageStateError", "EccUncorrectableError"}
    if scheme is not SequenceScheme.NONE:
        expected.add("ProgramSequenceError")
    assert errors == expected
    assert oracle[0].count(None) > 25


class PlainArraySubclass(NandArray):
    """An array subclass that overrides nothing."""


def test_nand_overrides_keep_python(use_core):
    """A TLC array and an array subclass keep every NAND call on
    Python (the ``nand`` callouts count them) with the same results;
    the stock array makes none."""
    def tlc_run():
        sim, array, buffer, ftl, _ = build_tlc_system("tlc-flexFTL")
        controller = StorageController(
            sim, array, ftl, buffer,
            SimStats(page_size=array.geometry.page_size))
        span = int(ftl.logical_pages * 0.7)
        host = ClosedLoopHost(sim, controller, [sequential_fill(span)]
                              + mixed_streams(span, 60, seed=2))
        host.start()
        sim.run()
        return outcome(sim, ftl, controller.stats), array.total_programs

    def run():
        NATIVE.reset_coverage()
        tlc = tlc_run()
        tlc_callouts = NATIVE.coverage()["callouts"]["nand"]
        sub = nand_sequence(7, SequenceScheme.RPS, True, False, "none",
                            array_cls=PlainArraySubclass)
        stock = nand_sequence(7, SequenceScheme.RPS, True, False, "none")
        return tlc, tlc_callouts, sub, stock

    oracle, native, _ = both(use_core, run)
    assert native[0] == oracle[0]
    assert native[2][0] == oracle[2][0] == oracle[3][0]
    # every program, read and erase of the TLC run went through Python
    assert native[1] >= oracle[0][1] > 0
    assert native[2][1] > 0
    assert native[3][1] == 0


# ----------------------------------------------------------------------
# the greedy victim scan


def record_victims(ftl, decisions):
    """Patch ``_begin_gc`` on the instance (the core calls it, it does
    not mirror it) to record, per GC begin, the chosen block and the
    candidates in the full set's iteration order with their invalid
    counts."""
    begin = ftl._begin_gc

    def recorded(chip_id, victim, background):
        state = ftl.chips[chip_id]
        candidates = [(block, ftl.mapping.invalid_count(
            ftl.mapping.global_block_of(chip_id, block)))
            for block in state.full_blocks]
        decisions.append((chip_id, victim, background, candidates))
        return begin(chip_id, victim, background)

    ftl._begin_gc = recorded


def churned_full_sets(ftl, rng):
    """Rebuild every chip's ``full_blocks`` with the same members through
    a seeded add/discard history, so the set's iteration order differs
    from the sorted order."""
    for state in ftl.chips:
        members = sorted(state.full_blocks)
        churned = set(range(64, 64 + 3 * len(members)))
        for block in rng.sample(members, len(members)):
            churned.add(block)
            churned.discard(64 + rng.randrange(3 * len(members)))
        churned.intersection_update(members)
        state.full_blocks = churned


def victim_run(patch=None, ops=250, seed=7):
    """A closed loop with eager background GC after a fill whose full
    sets were churned (and ``patch(ftl)`` applied); records every GC
    begin."""
    sim, _, _, ftl, controller = build(ftl_config=FtlConfig(**EAGER_GC))
    decisions = []
    record_victims(ftl, decisions)
    span = int(ftl.logical_pages * 0.8)
    fill = ClosedLoopHost(sim, controller, [sequential_fill(span)])
    fill.start()
    sim.run()
    churned_full_sets(ftl, random.Random(seed))
    if patch is not None:
        patch(ftl)
    _native.reset_coverage()
    host = ClosedLoopHost(sim, controller, mixed_streams(span, ops,
                                                         seed=seed))
    host.start()
    sim.run()
    return outcome(sim, ftl, controller.stats), decisions


def test_victim_scan_ties_follow_set_order(use_core):
    """With tied invalid counts the scan keeps the first best block in
    the set's own iteration order, which here differs from the sorted
    order: both cores begin the same collections, and every victim is
    the iteration-order choice."""
    def run():
        result, decisions = victim_run()
        callouts = None
        if _native.core is not None:
            callouts = NATIVE.coverage()["callouts"]["ftl"]
        return result, decisions, callouts

    oracle, native, _ = both(use_core, run)
    assert native[:2] == oracle[:2]
    decisions = oracle[1]
    assert len(decisions) > 10
    differs = 0
    for _, victim, _, candidates in decisions:
        best = max(invalid for _, invalid in candidates)
        tied = [block for block, invalid in candidates if invalid == best]
        assert victim == tied[0]
        differs += tied[0] != min(tied)
    assert differs > 0
    # an instance-patched scan is called (and counted) instead
    calls = []

    def patch(ftl):
        stock = ftl._select_victim

        def counted(*args):
            calls.append(args)
            return stock(*args)

        ftl._select_victim = counted

    use_core(True)
    patched, decisions = victim_run(patch=patch)
    assert patched == native[0] and decisions == native[1]
    assert calls
    assert NATIVE.coverage()["callouts"]["ftl"] == native[2] + len(calls)


def test_victim_scan_overrides_are_called(use_core, monkeypatch):
    """slcFTL's own ``_select_victim`` (invalid pages counted against
    the data wordlines) is still the one called, as often as on
    Python."""
    calls = []
    stock = SlcFtl._select_victim

    def counted(self, *args):
        calls.append(args)
        return stock(self, *args)

    monkeypatch.setattr(SlcFtl, "_select_victim", counted)

    def run():
        del calls[:]
        config = runner.ExperimentConfig(
            geometry=GEOMETRY,
            ftl_config=FtlConfig(**EAGER_GC))
        sim, _, _, ftl, controller = runner.build_system("slcFTL", config)
        span = int(ftl.logical_pages * 0.8)
        host = ClosedLoopHost(sim, controller, [sequential_fill(span)]
                              + mixed_streams(span, 200, seed=4))
        host.start()
        sim.run()
        return outcome(sim, ftl, controller.stats), len(calls)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[1] > 0
    assert coverage["native"] > 0 and coverage["python"]["patched"] == 0


def test_gc_policy_ablation(use_core):
    """A tiny greedy/cost-benefit ablation grid: byte-identical
    reports (cost-benefit scans stay on Python)."""
    config = runner.ExperimentConfig(geometry=GEOMETRY)

    def run():
        points = run_gc_policy_ablation(total_ops=1500, config=config,
                                        engine=EngineOptions())
        return [json.dumps(point.to_dict(), sort_keys=True)
                for point in points]

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[0] != oracle[1]  # the policies chose differently
    assert coverage["native"] > 0


# ----------------------------------------------------------------------
# request completion


class RecordingCallback:
    """A custom ``on_complete``: records each completion."""

    def __init__(self, log):
        self.log = log

    def __call__(self, request, now):
        self.log.append((request.lpn, now))


class SubclassedHost(ClosedLoopHost):
    """A closed-loop host subclass that overrides nothing."""


def think_streams(span, count, seed, think=2e-4):
    """``mixed_streams`` whose think times are all nonzero."""
    return [[StreamOp(op.kind, op.lpn, op.npages, think_after=think)
             for op in stream]
            for stream in mixed_streams(span, count, seed)]


def completion_run(make_host, ops=100, seed=5, cut_at=None):
    """A filled small device serving ``make_host(sim, controller,
    span)``, stepped event by event: the outcome, the pop order, any
    error, and the core's host callouts and completion flushes."""
    sim, _, _, ftl, controller = build(buffer_pages=16)
    span = int(ftl.logical_pages * 0.8)
    fill = ClosedLoopHost(sim, controller, [sequential_fill(span)])
    fill.start()
    sim.run()
    _native.reset_coverage()
    host, extra = make_host(sim, controller, span)
    host.start()
    cut = None
    if cut_at is not None:
        cut = ScheduledPowerLoss(sim, controller, sim.now + cut_at)
    error = None
    try:
        order = stepped(sim)
        if cut is not None:
            recover_after_power_loss(controller, cut.report)
            host.resume()
            order += stepped(sim)
    except ValueError as exc:
        error = str(exc)
        order = None
    counts = None
    if _native.core is not None:
        coverage = NATIVE.coverage()
        counts = (coverage["callouts"]["host"], coverage["flushes"]["host"])
    return (outcome(sim, ftl, controller.stats), order, error,
            extra()), counts


def qos_hooked(sim, controller, span):
    """Two SLO accountants chained through ``_ChainedHook``."""
    first, second = SloAccountant(), SloAccountant()
    first.attach(controller)
    second.attach(controller)
    assert isinstance(controller.completion_hook, _ChainedHook)
    host = ClosedLoopHost(sim, controller, mixed_streams(span, 100, 5),
                          tenant="t0")
    return host, lambda: json.dumps([first.summary(), second.summary()],
                                    sort_keys=True)


def custom_callback(sim, controller, span):
    """Open-loop requests carrying a custom ``on_complete``."""
    log = []
    rng = random.Random(5)
    trace = []
    for index in range(150):
        kind = RequestKind.READ if rng.random() < 0.4 else RequestKind.WRITE
        request = Request(sim.now + index * 1e-4, kind,
                          rng.randrange(span - 2), rng.randint(1, 2))
        request.on_complete = RecordingCallback(log)
        trace.append(request)
    return TraceReplayHost(sim, controller, trace), lambda: list(log)


def subclassed_host(sim, controller, span):
    host = SubclassedHost(sim, controller, think_streams(span, 100, 5))
    return host, lambda: list(host._cursor)


def generator_host(sim, controller, span):
    """Streams pulled from a scenario's generators (no spec kept)."""
    scenario = make_preset("oltp", footprint=span, total_ops=400, seed=5)
    host = StreamingClosedLoopHost(sim, controller, scenario.op_streams())
    return host, lambda: (host.issued, list(host._pulled))


def bad_think(value):
    def make(sim, controller, span):
        streams = think_streams(span, 40, 5)
        op = streams[1][10]
        streams[1][10] = StreamOp(op.kind, op.lpn, op.npages,
                                  think_after=value)
        host = ClosedLoopHost(sim, controller, streams)
        return host, lambda: list(host._cursor)
    return make


def streaming_with_think(sim, controller, span):
    scenario = make_preset("webserver", footprint=span, total_ops=400,
                           seed=6)
    host = StreamingClosedLoopHost(sim, controller, scenario.op_streams(),
                                   scenario=scenario)
    return host, lambda: (host.issued, list(host._pulled))


@pytest.mark.parametrize("make_host,stock_callouts", [
    (qos_hooked, 2),
    (custom_callback, None),
    (subclassed_host, None),
    (generator_host, 0),
], ids=["qos-hook", "custom-callback", "subclassed-host", "generator"])
def test_completion_contract(use_core, make_host, stock_callouts):
    """Every kind of completion gives the same outcome and pop order on
    both cores.  The stock completions (a generator-backed streaming
    host; two SLO accountants chained through ``_ChainedHook``) run
    natively and never drop the core's cache: the accountants call
    Python only to open the tenant's account, once each.  A custom
    callback or a host subclass is called, and drops it."""
    def run():
        return completion_run(make_host)

    (oracle, _), (native, counts), coverage = both(use_core, run)
    assert native == oracle
    assert oracle[2] is None and oracle[3]
    callouts, flushes = counts
    if stock_callouts is not None:
        assert callouts == stock_callouts and flushes == 0
    else:
        assert callouts > 0 and flushes == callouts
    assert coverage["native"] > 0


@pytest.mark.parametrize("value", [-1e-3, float("nan")],
                         ids=["negative", "nan"])
def test_completion_bad_think_time(use_core, value):
    """A negative or NaN think time raises the same ``ValueError`` from
    the same event, leaving the same state behind."""
    def run():
        return completion_run(bad_think(value))

    (oracle, _), (native, _), _ = both(use_core, run)
    assert native == oracle
    assert oracle[2] == ("delay must not be NaN" if value != value
                         else f"delay must be non-negative, got {value}")


def test_completion_power_cut_and_resume(use_core):
    """A power cut mid-run halts the queue with completions in flight;
    after recovery ``resume()`` re-issues the stalled streams."""
    def run():
        return completion_run(streaming_with_think, cut_at=0.02)

    (oracle, _), (native, counts), _ = both(use_core, run)
    assert native == oracle
    assert counts == (0, 0)


def test_snapshot_bytes_with_think_times(use_core):
    """A list-backed closed loop with think times pickled mid-run: the
    queued issue events the native completion scheduled pickle to the
    same bytes, and resume to the same result."""
    def run():
        sim, _, _, ftl, controller = build(buffer_pages=16)
        host = ClosedLoopHost(sim, controller,
                              think_streams(300, 120, seed=3))
        host.start()
        sim.run(max_events=900)
        blob = pickle.dumps((sim, controller, host),
                            protocol=pickle.HIGHEST_PROTOCOL)
        sim, controller, _ = pickle.loads(blob)
        sim.run()
        return blob, outcome(sim, controller.ftl, controller.stats)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["flushes"]["host"] == 0


# ----------------------------------------------------------------------
# deterministic callout counters


def no_flushes(**causes):
    """A ``flushes`` dict: zero for every cause but ``causes``."""
    counts = dict.fromkeys(("nand", "ftl", "host", "scenario", "physics",
                            "tracer", "kernel", "controller", "handler"),
                           0)
    counts.update(causes)
    return counts


def fig8_write_coverage():
    """perfbench ``fig8_write`` (seed 1, scale 0.05) on the core."""
    NATIVE.reset_coverage()
    result = harness.run_perfbench(workloads=["fig8_write"], scale=0.05,
                                   seed=1)
    return result.timings["fig8_write"].events, NATIVE.coverage()


def armed_webserver_coverage():
    """The armed run of ``test_armed_run_coverage_contract``."""
    sim, ftl, controller, stats, tracer, engine, host = armed_system(
        ops=2000, seed=1, geometry=runner.ExperimentConfig().geometry)
    NATIVE.reset_coverage()
    host.start()
    sim.run()
    tracer.detach()
    return sim.processed, NATIVE.coverage()


def tenanted_fleet_device_coverage():
    """One tenanted pageFTL fleet device (seed 1, OLTP on two tenants
    behind DRR, 200 ops) on the core, after its build and warm-up."""
    fleet = FleetSpec(devices=1, ftl_name="pageFTL", preset="oltp",
                      ops_per_device=200, tenants=2, arbiter="drr", seed=1)
    device = DeviceRun.build(fleet.device_specs()[0])
    NATIVE.reset_coverage()
    device.run_to_completion()
    return device.measured_events, NATIVE.coverage()


def ntrx_erase_coverage():
    """An ``ntrx_write``-shaped run: NTRX (seed 1, 1,500 ops) on a warmed
    small flexFTL device, long enough for GC to erase victims."""
    config = runner.ExperimentConfig(geometry=GEOMETRY)
    sim, array, _, ftl, controller = runner.build_system("flexFTL", config)
    footprint = int(ftl.logical_pages * 0.75)
    runner.warmup_device(sim, controller, ftl, config, footprint=footprint)
    scenario = make_preset("ntrx", footprint=footprint, total_ops=1500,
                           seed=1)
    host = StreamingClosedLoopHost(
        sim, controller, [iter(ops) for ops in scenario.op_streams()],
        scenario=scenario)
    NATIVE.reset_coverage()
    start, erased = sim.processed, array.total_erases
    host.start()
    sim.run()
    assert array.total_erases - erased == 570
    return sim.processed - start, NATIVE.coverage()


@pytest.mark.parametrize("workload,events,native,callouts,flushes", [
    (fig8_write_coverage, 23693, 23693,
     {"nand": 0, "ftl": 1563, "host": 0, "scenario": 0, "physics": 0,
      "tracer": 0, "kernel": 0, "controller": 0},
     no_flushes()),
    (armed_webserver_coverage, 26830, 5009,
     {"nand": 0, "ftl": 645, "host": 0, "scenario": 1928, "physics": 5413,
      "tracer": 8, "kernel": 0, "controller": 0},
     no_flushes(handler=82)),
    (tenanted_fleet_device_coverage, 750, 750,
     {"nand": 0, "ftl": 64, "host": 0, "scenario": 0, "physics": 0,
      "tracer": 0, "kernel": 0, "controller": 0},
     no_flushes()),
    (ntrx_erase_coverage, 15585, 15585,
     {"nand": 0, "ftl": 3091, "host": 0, "scenario": 1500, "physics": 0,
      "tracer": 0, "kernel": 0, "controller": 0},
     no_flushes()),
], ids=["fig8_write", "webserver_armed", "tenanted_fleet_device",
        "ntrx_erases"])
def test_callout_counters(use_core, workload, events, native, callouts,
                          flushes):
    """The core's calls into Python, by layer, and its cache flushes,
    pinned on two seeded runs.  They are plain counts, deterministic
    per seed, so a coverage regression fails here whatever the host's
    speed.  NAND calls, request completions, the QoS host's events and
    GC's victim erases never leave the core, and nothing drops its cache
    but the events handled in Python (the armed run's retry ladder).  A change that moves work into or out
    of the core updates these numbers on purpose."""
    use_core(True)
    processed, coverage = workload()
    assert processed == events
    assert coverage["native"] == native
    assert coverage["callouts"] == callouts
    assert coverage["flushes"] == flushes
