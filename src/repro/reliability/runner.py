"""Measured runs with the physics-grounded error engine armed.

:func:`run_physics_workload` mirrors
:func:`repro.faults.runner.run_fault_workload` — same fault-free
preconditioning, same measured-phase counter deltas — but arms a
:class:`~repro.reliability.physics.PhysicsEngine` for the measured
phase.  The warmup stays physics-free (no RNG draws), then the engine
is attached and primed from each block's recorded program history, so
warmup-written pages enter the measured phase with their true aggressor
counts.  Because the engine replays ``block.program_history``, the run
requires ``track_history=True`` (the :class:`ExperimentConfig`
default).

The result couples the ordinary workload metrics with the engine's
error summary: cumulative BER, retry-ladder activity, and the
pages-to-ECC-failure onset the ``lifetime_physics`` experiment reports.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.experiments.runner import (
    ExperimentConfig,
    RunResult,
    begin_measured_phase,
    build_system,
    scenario_host,
    warmup_device,
    _snapshot,
)
from repro.reliability.physics import PhysicsConfig, PhysicsEngine
from repro.scenarios.base import as_scenario


@dataclasses.dataclass
class PhysicsRunResult:
    """One measured run plus the physics engine's error summary."""

    run: RunResult
    physics: Dict[str, Any]

    @property
    def mean_ber(self) -> float:
        """Mean rung-0 raw BER over the run's sampled host reads."""
        return float(self.physics["mean_ber"])

    @property
    def read_errors(self) -> int:
        """Host reads whose baseline read + hard ECC failed."""
        return int(self.physics["read_errors"])

    @property
    def uncorrectable(self) -> int:
        """Host reads the whole ladder (incl. escalated ECC) lost."""
        return int(self.physics["uncorrectable"])

    @property
    def first_uncorrectable_read(self) -> Optional[int]:
        """1-based sampled-read index of the first ECC failure, or None."""
        value = self.physics["first_uncorrectable_read"]
        return None if value is None else int(value)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot, invertible via :meth:`from_dict`."""
        return {"run": self.run.to_dict(), "physics": dict(self.physics)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PhysicsRunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(run=RunResult.from_dict(data["run"]),
                   physics=dict(data["physics"]))


def run_physics_workload(
    *,
    ftl_name: str,
    scenario: Any,
    physics: Optional[PhysicsConfig] = None,
    config: Optional[ExperimentConfig] = None,
    max_events: Optional[int] = None,
    warmup_span: Optional[int] = None,
    tracer: Optional[object] = None,
) -> PhysicsRunResult:
    """Precondition physics-free, then measure with errors emerging.

    The workload comes from ``scenario`` (a
    :class:`~repro.scenarios.base.Scenario` or spec dict).  ``physics``
    defaults to :class:`~repro.reliability.physics.PhysicsConfig`
    defaults (fresh device, frozen retention clock).

    The returned result carries the measured phase's
    :class:`~repro.sim.stats.FaultStats` in ``run.stats.faults`` (the
    ladder counters) plus the engine summary in ``physics``.
    """
    workload = as_scenario(scenario)
    config = config or ExperimentConfig()
    if not config.track_history:
        raise ValueError(
            "run_physics_workload() needs config.track_history=True: "
            "the engine primes aggressor counts from block histories")
    sim, array, buffer, ftl, controller = build_system(ftl_name, config)

    tracing = tracer is not None and getattr(tracer, "enabled", True)
    if tracing:
        tracer.install(controller)
        tracer.begin_phase("warmup")
    warmup_device(sim, controller, ftl, config,
                  footprint=workload.footprint,
                  warmup_span=warmup_span, max_events=max_events)
    baseline, measured_stats = begin_measured_phase(controller, ftl,
                                                    config)
    if tracing:
        tracer.begin_phase("measured")

    engine = PhysicsEngine(physics or PhysicsConfig())
    controller.attach_physics(engine)
    ftl.fault_stats = measured_stats.faults

    host = scenario_host(sim, controller, workload)
    host.start()
    sim.run(max_events=max_events)
    if tracing:
        tracer.finish()
        measured_stats.metrics = tracer.metrics
        tracer.detach()

    final = _snapshot(ftl)
    deltas = {key: final[key] - baseline.get(key, 0) for key in final}
    run = RunResult(
        ftl_name=ftl_name,
        stats=measured_stats,
        counters=deltas,
        events=sim.processed,
        logical_pages=ftl.logical_pages,
    )
    return PhysicsRunResult(run=run, physics=engine.summary())
