"""Tests of the benchmark itself, on reduced input sizes.

Run from the root of a checkout::

    python3 -m pytest -q layerbench/tests
"""

from __future__ import annotations

import json
import math
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: reduced input size per workload (the full benchmark is 1.0)
SCALES = {"ntrx_write": 0.05, "webserver_armed": 0.05,
          "fleet_pageftl": 0.1}

#: layers each workload arms; every other one must read zero
ARMED = {"ntrx_write": set(), "webserver_armed": {"physics", "tracer"},
         "fleet_pageftl": {"qos", "fleet"}}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def reps(tmp_path_factory):
    """One untraced and one traced repetition per workload."""
    out = {}
    workdir = tmp_path_factory.mktemp("work")
    for name, workload in workloads.workloads(workdir).items():
        untraced = run.run_rep(workload, 3, SCALES[name])
        probe = layers.LayerProbe()
        probe.calibrate(calls=10_000, repeats=1)
        with probe:
            traced = run.run_rep(workload, 3, SCALES[name], probe)
        out[name] = (untraced, traced, probe)
    return out


def test_metric_names_and_units():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.workloads(ROOT)) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    digests = json.loads((BENCH / "digests.json").read_text())
    assert set(digests) == set(run.WORKLOADS)


def test_reduced_runs_pass_the_output_check(reps):
    for name, (untraced, traced, _) in reps.items():
        assert untraced.outcome.errors == [], name
        assert traced.outcome.errors == [], name
        assert untraced.outcome.failed == 0, name
        assert untraced.outcome.completed == untraced.outcome.attempted


def test_wrappers_leave_the_digest_unchanged(reps):
    for name, (untraced, traced, _) in reps.items():
        assert untraced.outcome.digest == traced.outcome.digest, name


def test_every_workload_emits_every_end_to_end_metric(reps):
    for name, (untraced, _, _) in reps.items():
        metrics = run.end_to_end([untraced], [untraced.setup_s], 1.0, 1.0)
        assert set(metrics) == set(run.END_TO_END), name
        for metric, value in metrics.items():
            # erases can be 0 at reduced size; never at the full one
            assert math.isfinite(value) and value >= 0, (name, metric)


def test_unarmed_layers_read_zero(reps):
    for name, (untraced, traced, probe) in reps.items():
        metrics = run.per_layer(layers, [(traced, probe)], [untraced])
        assert set(metrics) == set(run.PER_LAYER)
        for metric, value in metrics.items():
            layer = metric.split(".", 1)[0]
            if layer in ("physics", "tracer", "qos", "fleet") \
                    and layer not in ARMED[name]:
                assert value == 0, (name, metric, value)
        for layer in ("kernel", "controller", "ftl", "nand"):
            assert metrics[f"{layer}.self_s"] > 0, (name, layer)
        assert metrics["kernel.unwrapped_events"] == 0, name
        for layer in ARMED[name]:
            assert metrics[f"{layer}.self_s"] > 0, (name, layer)
    fleet = run.per_layer(layers, [reps["fleet_pageftl"][1:]],
                          [reps["fleet_pageftl"][0]])
    assert fleet["ftl.backup_programs"] == 0
    assert fleet["fleet.checkpoints"] > 0


def test_probe_restores_every_patched_attribute():
    before = {(m, c, a): getattr(getattr(__import__(m, fromlist=[c]), c), a)
              for m, c, a, _ in layers.CLASS_SPANS}
    with layers.LayerProbe():
        pass
    after = {(m, c, a): getattr(getattr(__import__(m, fromlist=[c]), c), a)
             for m, c, a, _ in layers.CLASS_SPANS}
    assert before == after


def test_host_speed_samples_then_disarms():
    speed = run.HostSpeed()
    with speed:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
    assert len(speed.samples) >= 3
    assert speed.spent == pytest.approx(sum(speed.samples))
    assert speed.factor() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_command_line_run(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "fleet_pageftl", "--seed", "5", "--seconds", "0.1", "--scale",
         "0.05", "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ntrx_write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
