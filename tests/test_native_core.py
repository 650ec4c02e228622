"""Differential suite: the native dispatch core against the Python oracle.

Every case runs one seeded simulation twice — on the pure-Python code
(the loader's module handle swapped to None) and on the native core
(:mod:`repro.sim._native`) — and requires byte identity of what the
run produced: ``SimStats.to_dict()``, the FTL counters,
``sim.processed`` and, where a case is small enough to step event by
event, the event pop order.  Cases that must stay on Python (physics,
tracer, fault injection) also check that the
coverage counters say so; the common cases check the core really ran.
"""

import json
import pickle
import random

import pytest

from repro.core.flexftl import FlexFtl
from repro.core.predictor import EwmaBurstPredictor
from repro.experiments import fig8, runner
from repro.experiments.engine import EngineOptions
from repro.experiments.tlc_system import build_tlc_system
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recovery import recover_after_power_loss
from repro.fleet.service import FleetSpec, fleet_config, run_fleet
from repro.ftl.base import FtlConfig
from repro.ftl.pageftl import PageFtl
from repro.ftl.parityftl import ParityFtl
from repro.ftl.rtfftl import RtfFtl
from repro.nand.geometry import NandGeometry
from repro.observability.tracer import Tracer
from repro.reliability.physics import PhysicsConfig, PhysicsEngine
from repro.scenarios.host import StreamingClosedLoopHost
from repro.scenarios.presets import make_preset
from repro.sim import _native
from repro.sim.host import ClosedLoopHost, StreamOp, TraceReplayHost
from repro.sim.kernel import Simulator
from repro.sim.controller import StorageController
from repro.sim.powerloss import ScheduledPowerLoss
from repro.sim.queues import Request, RequestKind
from repro.sim.stats import SimStats
from repro.sim.tracing import OpLog
from repro.workloads.synthetic import sequential_fill

from tests.helpers import build_small_system
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


def outcome(sim, ftl, stats):
    """Everything a run produced, as canonical JSON text."""
    return json.dumps({"stats": stats.to_dict(), "counters": ftl.counters(),
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
    """The golden trace scenarios (tracer installed, so their
    completions take the Python path) are identical on both cores."""
    def run():
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        return TRACE_SCENARIOS[name](out).read_text()

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] == 0


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
    """pageFTL devices behind the DRR arbiter (QoS handlers stay on
    Python; the controller and kernel run natively)."""
    fleet = FleetSpec(devices=8, ftl_name="pageFTL", ops_per_device=60,
                      tenants=2, arbiter="drr", seed=2,
                      config=fleet_config())

    def run():
        return run_fleet(fleet, jobs=1, quantum=128).report.fingerprint()

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] > 0 and coverage["python"]["handler"] > 0


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


def test_physics_and_tracer_take_python(use_core):
    """Physics armed and a tracer installed: every completion and issue
    runs the Python code."""
    def run():
        config = runner.ExperimentConfig(geometry=GEOMETRY,
                                         track_history=True)
        sim, _, _, ftl, controller = runner.build_system("flexFTL", config)
        footprint = int(ftl.logical_pages * 0.75)
        runner.warmup_device(sim, controller, ftl, config,
                             footprint=footprint)
        tracer = Tracer()
        tracer.install(controller)
        controller.attach_physics(PhysicsEngine(PhysicsConfig(
            seed=3, pe_baseline=6000, retention_baseline_hours=8760.0)))
        scenario = make_preset("webserver", footprint=footprint,
                               total_ops=300, seed=3)
        host = StreamingClosedLoopHost(sim, controller,
                                       scenario.op_streams(),
                                       scenario=scenario)
        NATIVE.reset_coverage()
        host.start()
        sim.run()
        tracer.finish()
        tracer.detach()
        records = [(event.kind, event.time, sorted(event.fields.items()))
                   for event in tracer.events()]
        return outcome(sim, ftl, controller.stats), records

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert coverage["native"] == 0
    assert coverage["python"]["physics"] > 0


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
    installed tracer keeps the scenario host's issue on Python."""
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
    assert coverage["python"]["subclass"] > 0
    assert coverage["python"]["trace"] > 0 and coverage["native"] > 0


def test_patched_class_keeps_python(use_core, monkeypatch):
    """Wrapping a method the core replaces (as a profiler does) keeps
    the whole run on Python."""
    from repro.sim.controller import StorageController

    stock = StorageController._on_op_done
    calls = []

    def wrapped(self, *args):
        calls.append(args[0])
        return stock(self, *args)

    monkeypatch.setattr(StorageController, "_on_op_done", wrapped)
    oracle, native, coverage = both(use_core, lambda: small_run(ops=60))
    assert native == oracle
    assert coverage["native"] == 0 and coverage["python"]["patched"] > 0
    assert len(calls) > 0
