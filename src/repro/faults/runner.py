"""Measured runs with runtime fault injection.

:func:`run_fault_workload` mirrors
:func:`repro.experiments.runner.run_workload` — same preconditioning,
same measured-phase counter deltas — but arms a
:class:`~repro.faults.plan.FaultPlan` for the measured phase.  The
warmup stays fault-free: the paper's evaluation methodology measures a
preconditioned device, and a spare consumed during the fill would make
campaigns at different rates start from different states.

:func:`run_powerloss_resume` runs a workload through one or more
scheduled power cuts, recovering and resuming after each — the
runtime equivalent of the reboot studies in
:mod:`repro.experiments.recovery`, but continuing the *same* workload
instead of inspecting a dead device.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    _snapshot,
    begin_measured_phase,
    build_system,
    scenario_host,
    warmup_device,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import PowerLossRecovery, recover_after_power_loss
from repro.scenarios.base import CLOSED, Scenario, as_scenario
from repro.sim.powerloss import ScheduledPowerLoss


def _warmed_system(ftl_name: str, scenario: Scenario, config,
                   max_events, warmup_span,
                   plan: Optional[FaultPlan]):
    """Build + precondition a system, returning it ready to measure."""
    config = config or ExperimentConfig()
    sim, array, buffer, ftl, controller = build_system(ftl_name, config)

    if plan is not None:
        for chip, block in plan.factory_bad:
            ftl.mark_factory_bad(chip, block)

    warmup_device(sim, controller, ftl, config,
                  footprint=scenario.footprint,
                  warmup_span=warmup_span, max_events=max_events)
    baseline, measured_stats = begin_measured_phase(controller, ftl,
                                                    config)
    controller.ensure_fault_stats()
    ftl.fault_stats = measured_stats.faults
    if ftl.degraded and not controller.read_only:
        # The factory bad-block table alone exhausted the reserve.
        controller._enter_read_only()
    return sim, ftl, controller, config, baseline, measured_stats


def _finish(ftl_name, sim, ftl, baseline, measured_stats) -> RunResult:
    final = _snapshot(ftl)
    deltas = {key: final[key] - baseline.get(key, 0) for key in final}
    return RunResult(
        ftl_name=ftl_name,
        stats=measured_stats,
        counters=deltas,
        events=sim.processed,
        logical_pages=ftl.logical_pages,
    )


def run_fault_workload(
    *,
    ftl_name: str,
    scenario: Any,
    plan: FaultPlan,
    config: Optional[ExperimentConfig] = None,
    max_events: Optional[int] = None,
    warmup_span: Optional[int] = None,
) -> RunResult:
    """Precondition fault-free, then run one workload under ``plan``.

    The workload comes from ``scenario`` (a
    :class:`~repro.scenarios.base.Scenario` or spec dict).

    The returned :class:`~repro.experiments.runner.RunResult` carries
    the measured phase's :class:`~repro.sim.stats.FaultStats` in
    ``stats.faults`` (always attached, even for a plan that injects
    nothing — a campaign's zero-rate baseline reports zeros, not
    None).
    """
    workload = as_scenario(scenario)
    sim, ftl, controller, config, baseline, measured_stats = \
        _warmed_system(ftl_name, workload, config, max_events,
                       warmup_span, plan)
    if plan.enabled:
        controller.attach_fault_injector(
            FaultInjector(plan, page_size=config.geometry.page_size))

    host = scenario_host(sim, controller, workload)
    host.start()
    sim.run(max_events=max_events)
    return _finish(ftl_name, sim, ftl, baseline, measured_stats)


def run_powerloss_resume(
    *,
    ftl_name: str,
    scenario: Any,
    cut_offsets: Sequence[float],
    plan: Optional[FaultPlan] = None,
    config: Optional[ExperimentConfig] = None,
    max_events: Optional[int] = None,
    warmup_span: Optional[int] = None,
) -> Tuple[RunResult, List[PowerLossRecovery]]:
    """Run a workload through scheduled power cuts, recovering each.

    ``cut_offsets`` are seconds after the measured phase starts; each
    cut halts the simulation, :func:`recover_after_power_loss` brings
    the device back, the host re-issues its unfinished streams, and
    the next cut (if any) is armed.  An optional ``plan`` additionally
    arms runtime fault injection for the whole measured phase.

    Only closed-mode scenarios support resumption (an open-loop trace
    has no retry semantics for an op lost to a power cut).

    Returns the measured-phase result plus one
    :class:`~repro.faults.recovery.PowerLossRecovery` per fired cut
    (a cut scheduled after the workload finishes never fires).
    """
    if not cut_offsets:
        raise ValueError("cut_offsets must not be empty")
    workload = as_scenario(scenario)
    if workload.mode != CLOSED:
        raise ValueError(
            "run_powerloss_resume() needs a closed-mode scenario: "
            "open-loop replay cannot retry an op lost to a power cut")
    sim, ftl, controller, config, baseline, measured_stats = \
        _warmed_system(ftl_name, workload, config, max_events,
                       warmup_span, plan)
    if plan is not None and plan.enabled:
        controller.attach_fault_injector(
            FaultInjector(plan, page_size=config.geometry.page_size))

    host = scenario_host(sim, controller, workload)
    power = ScheduledPowerLoss(
        sim, controller,
        at_times=[sim.now + offset for offset in cut_offsets])
    host.start()

    recoveries: List[PowerLossRecovery] = []
    while True:
        sim.run(max_events=max_events)
        if len(power.reports) <= len(recoveries):
            break  # ran to completion: no new cut fired
        report = power.reports[len(recoveries)]
        recoveries.append(recover_after_power_loss(controller, report))
        host.resume()
        power.arm_next()
        # Kick the drained device back into motion: the resumed
        # streams arrive via events, but redrive/salvage work must
        # start even on chips no stream touches.
        controller._pump()
    power.cancel()
    return (_finish(ftl_name, sim, ftl, baseline, measured_stats),
            recoveries)
