"""Differential suite: the native QoS front-end against the Python oracle.

Every case serves one seeded multi-tenant workload twice — on the
pure-Python code and on the native core (:mod:`repro.sim._native`) —
and requires byte identity of what the run produced: the device outcome
(``SimStats``, FTL counters, placement), the event pop order, the SLO
accountant's summary, each submission queue's counters and depth
timeline, the arbiter's scan state (``_pos``, ``_credits``,
``_deficit``, ``_credited``), the admission gate's counters and the
host's cursors.  The grid covers the four stock arbiters, the gate's
bounds and bounded queue depths on all five FTLs; further cases pin
pickled mid-run bytes, a power cut, and the hosts that must keep their
handlers on Python (a token bucket, a tracer, a patched ``select``).
"""

import dataclasses
import json
import pickle

import pytest

from repro.experiments import runner
from repro.faults.recovery import recover_after_power_loss
from repro.qos.host import MultiTenantHost, TenantSpec
from repro.sim import _native
from repro.sim.host import ClosedLoopHost, StreamOp
from repro.sim.powerloss import ScheduledPowerLoss
from repro.sim.queues import RequestKind
from repro.workloads.synthetic import sequential_fill

from tests.test_native_core import (  # noqa: F401  (use_core: a fixture)
    GEOMETRY,
    NATIVE,
    both,
    mixed_streams,
    outcome,
    stepped,
    use_core,
)

pytestmark = pytest.mark.skipif(
    NATIVE is None, reason=f"native core unavailable: {_native.STATUS}")

FTLS = ["pageFTL", "parityFTL", "rtfFTL", "slcFTL", "flexFTL"]
ARBITERS = ["fifo", "rr", "wrr", "drr"]


def tenants(span, ops, seed, bounded=False, **extra):
    """A three-stream victim (weight 2) and a six-stream noisy tenant
    (weight 0.5): nine streams, so a gate of 8 blocks too.  Each queue
    is bounded to its stream count when ``bounded``.  The noisy write
    target of 0.0 counts every write that waited, and no other."""
    return [
        TenantSpec.make("victim", mixed_streams(span, ops, seed, streams=3),
                        weight=2.0, read_slo=1e-3, write_slo=5e-4,
                        max_queue_depth=3 if bounded else None,
                        **extra.get("victim", {})),
        TenantSpec.make("noisy", mixed_streams(span, ops, seed + 1,
                                               streams=6),
                        weight=0.5, read_slo=2e-3, write_slo=0.0,
                        max_queue_depth=6 if bounded else None,
                        **extra.get("noisy", {})),
    ]


def qos_system(ftl="pageFTL", arbiter="drr", max_outstanding=8,
               max_pending=None, bounded=False, ops=20, seed=3, **extra):
    """A filled small device behind a started MultiTenantHost;
    ``extra`` adds TenantSpec fields per tenant name."""
    config = runner.ExperimentConfig(geometry=GEOMETRY, buffer_pages=16)
    sim, _, _, ftl, controller = runner.build_system(ftl, config)
    span = int(ftl.logical_pages * 0.8)
    fill = ClosedLoopHost(sim, controller, [sequential_fill(span)])
    fill.start()
    sim.run()
    host = MultiTenantHost(
        sim, controller,
        tenants(span, ops, seed, bounded=bounded, **extra),
        arbiter=arbiter, max_outstanding=max_outstanding,
        max_pending_admissions=max_pending)
    host.start()
    return sim, ftl, controller, host


def qos_state(sim, ftl, controller, host):
    """Everything the run produced, QoS state included, as JSON text."""
    arbiter = host.arbiter
    return json.dumps({
        "device": outcome(sim, ftl, controller.stats),
        "slo": host.accountant.summary(),
        "queues": [(queue.enqueued, queue.issued, queue.max_depth_seen,
                    queue.depth_samples) for queue in host.queues],
        "arbiter": {name: getattr(arbiter, name)
                    for name in ("_pos", "_credits", "_deficit",
                                 "_credited") if hasattr(arbiter, name)},
        "gate": (host.gate.outstanding, host.gate.blocked_decisions),
        "host": (host._seq, host._issued, host._cursor, host._wake_at),
    }, sort_keys=True)


def serve(step=False, quantum=None, **system):
    """Serve a QoS system to exhaustion: stepped (the pop order), in
    ``max_events`` quanta, or in one run."""
    sim, ftl, controller, host = qos_system(**system)
    order = None
    if step:
        order = stepped(sim)
    elif quantum is not None:
        order = []
        while sim.pending:
            sim.run(max_events=quantum)
            order.append((sim.processed, sim.now))
    else:
        sim.run()
    return qos_state(sim, ftl, controller, host), order


def native_only(coverage):
    """The QoS handlers and completions ran natively: no event went to
    Python and no completion dropped the cache (rtfFTL's own idle-time
    GC, a Python method, may)."""
    assert coverage["python"]["handler"] == 0
    assert coverage["flushes"]["handler"] == coverage["flushes"]["host"] == 0
    assert coverage["native"] > 0


@pytest.mark.parametrize("max_outstanding", [None, 1, 8])
@pytest.mark.parametrize("arbiter", ARBITERS)
@pytest.mark.parametrize("ftl", FTLS)
def test_arbiter_grid(use_core, ftl, arbiter, max_outstanding):
    """Every stock arbiter under three gate bounds on every FTL."""
    def run():
        return serve(ftl=ftl, arbiter=arbiter,
                     max_outstanding=max_outstanding, quantum=97)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    native_only(coverage)


@pytest.mark.parametrize("arbiter", ARBITERS)
@pytest.mark.parametrize("ftl", FTLS)
def test_pending_admissions_and_bounded_queues(use_core, ftl, arbiter):
    """The gate's write-admission bound with queues bounded at their
    stream count, stepped event by event (the pop order)."""
    def run():
        return serve(ftl=ftl, arbiter=arbiter, max_outstanding=4,
                     max_pending=1, bounded=True, step=True)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert json.loads(oracle[0])["gate"][1] > 0  # the gate did block
    native_only(coverage)


def test_queue_overflow_raises_alike(use_core):
    """A queue bounded below its stream count overflows: the same
    OverflowError, at the same state, on both cores."""
    def run():
        sim, ftl, controller, host = qos_system(max_outstanding=1, ops=5)
        for queue in host.queues:
            queue.max_depth = 1
        with pytest.raises(OverflowError) as caught:
            sim.run()
        return str(caught.value), qos_state(sim, ftl, controller, host)

    oracle, native, _ = both(use_core, run)
    assert native == oracle
    assert "is full" in oracle[0]


@pytest.mark.parametrize("arbiter", ARBITERS)
def test_pickled_mid_run(use_core, arbiter):
    """A device pickled mid-run (as fleet checkpoints do) is the same
    byte string on both cores and resumes to the same result."""
    def run():
        sim, ftl, controller, host = qos_system(arbiter=arbiter, ops=30)
        sim.run(max_events=400)
        blob = pickle.dumps((sim, ftl, controller, host),
                            protocol=pickle.HIGHEST_PROTOCOL)
        sim, ftl, controller, host = pickle.loads(blob)
        sim.run()
        return blob, qos_state(sim, ftl, controller, host)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    native_only(coverage)


def test_power_cut(use_core):
    """A power cut halts the run mid-stream (its handler is Python);
    after recovery a wake-up resumes the queued commands natively."""
    def run():
        sim, ftl, controller, host = qos_system(ops=40,
                                                max_outstanding=2)
        cut = ScheduledPowerLoss(sim, controller, sim.now + 0.01)
        first = stepped(sim)
        clean = recover_after_power_loss(controller, cut.report).clean
        host.gate.outstanding = 0  # the in-flight commands died
        sim.schedule(0.0, host._wake)
        second = stepped(sim)
        return (qos_state(sim, ftl, controller, host), first, second,
                clean)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[1] and oracle[2]
    assert coverage["python"]["handler"] == 1  # the cut itself


class Recorder:
    """A bare trace sink: records every event."""

    def __init__(self):
        self.events = []

    def event(self, *name, **fields):
        self.events.append((name, sorted(fields.items())))


def fallback_run(prepare, **system):
    """Serve a QoS system after ``prepare(host)``: the outcome and what
    ``prepare`` returns to read back afterwards."""
    sim, ftl, controller, host = qos_system(**system)
    readback = prepare(host)
    sim.run()
    return qos_state(sim, ftl, controller, host), readback()


def traced(host):
    recorder = Recorder()
    host._trace = recorder
    return lambda: recorder.events


def patched_select(host):
    calls = []
    stock = host.arbiter.select

    def select(queues, eligible):
        calls.append(tuple(eligible))
        return stock(queues, eligible)

    host.arbiter.select = select
    return lambda: calls


@pytest.mark.parametrize("prepare", [traced, patched_select],
                         ids=["traced", "patched-select"])
def test_non_stock_hosts_keep_python(use_core, prepare):
    """A traced host and an instance-patched ``select`` run their
    handlers in Python (counted under ``handler``); the device still
    runs natively, and the outcome is the oracle's."""
    def run():
        return fallback_run(prepare)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[1]  # the trace events / select calls happened
    assert coverage["python"]["handler"] > 0 and coverage["native"] > 0


def test_token_bucket_keeps_python(use_core):
    """A rate-limited tenant (token bucket, throttle wake-ups) keeps the
    host's handlers in Python."""
    def run():
        sim, ftl, controller, host = qos_system(
            noisy={"rate_pages_per_sec": 2e4, "burst_pages": 4.0})
        sim.run()
        return (qos_state(sim, ftl, controller, host),
                host.buckets[1].throttled_decisions)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert oracle[1] > 0
    assert coverage["python"]["handler"] > 0 and coverage["native"] > 0


@pytest.mark.parametrize("field,value", [("lpn", -1), ("npages", 0)])
@pytest.mark.parametrize("qos", [False, True], ids=["closed-loop", "qos"])
def test_bad_request_raises_alike(use_core, qos, field, value):
    """A stream op with a negative lpn or no pages: the native issue
    paths build each Request in C, and hand a bad one to the dataclass,
    whose ValueError is raised at the same point on both cores."""
    def run():
        config = runner.ExperimentConfig(geometry=GEOMETRY, buffer_pages=16)
        sim, _, _, ftl, controller = runner.build_system("pageFTL", config)
        good = StreamOp(RequestKind.WRITE, 5, 2)
        streams = [[good, good, dataclasses.replace(good, **{field: value})]]
        if qos:
            host = MultiTenantHost(sim, controller,
                                   [TenantSpec.make("t", streams)])
        else:
            host = ClosedLoopHost(sim, controller, streams)
        host.start()
        with pytest.raises(ValueError) as caught:
            sim.run()
        return str(caught.value), outcome(sim, ftl, controller.stats)

    oracle, native, coverage = both(use_core, run)
    assert native == oracle
    assert field in oracle[0]
    assert coverage["native"] > 0
