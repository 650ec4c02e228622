"""The native core's compile-on-import loader (:mod:`repro.sim._native`).

Builds happen in temporary cache directories, never in the user's
cache; the tests that compile skip when no compiler is available.
"""

import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from repro.sim import _native

SRC = Path(__file__).resolve().parent.parent / "src"
SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"

needs_compiler = pytest.mark.skipif(
    _native.core is None,
    reason=f"native core unavailable: {_native.STATUS}")


def import_in_child(env_overrides, code="", timeout=300):
    """Import the loader in a fresh interpreter; returns its stdout
    lines (STATUS first, then whatever ``code`` prints)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(env_overrides)
    script = ("import sys\n"
              "from repro.sim import _native\n"
              "print(_native.STATUS)\n" + code)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_failing_compile_falls_back(tmp_path):
    """A source that does not compile leaves the core off, with the
    reason, and raises nothing."""
    broken = tmp_path / "_core.c"
    broken.write_text("this is not C\n")
    core, status = _native.load(source=broken, root=tmp_path / "cache")
    assert core is None
    assert status.startswith("python: compile failed" if _native.core
                             else "python: ")


def test_missing_compiler_falls_back_to_python(tmp_path):
    """No compiler on PATH and a cold cache: the import reports why and
    a simulation still runs, on the pure-Python code."""
    lines = import_in_child(
        {"PATH": "", "XDG_CACHE_HOME": str(tmp_path)},
        "from repro.sim.kernel import Simulator\n"
        "sim = Simulator()\n"
        "sim.schedule(1.0, print, 'fired')\n"
        "sim.run()\n"
        "print(_native.core is None, sim.processed)\n")
    assert lines[0].startswith("python: compiler not found")
    assert lines[1:] == ["fired", "True 1"]


@needs_compiler
def test_warm_cache_import_skips_the_build_tooling(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path)}
    assert import_in_child(env)[0] == "native"  # cold: builds
    lines = import_in_child(
        dict(env, PATH=""),  # warm: no compiler needed
        "print(sorted(m for m in ('setuptools', 'distutils')"
        " if m in sys.modules))\n")
    assert lines == ["native", "[]"]


@needs_compiler
def test_changed_source_rebuilds(tmp_path):
    root = tmp_path / "cache"
    edited = tmp_path / "_core.c"
    edited.write_text(_native.SOURCE.read_text()
                      + "\n/* an edit */\n")
    core, status = _native.load(source=edited, root=root)
    assert status == "native" and core is not None
    key = _native.build_key(edited.read_bytes())
    assert key != _native.build_key(_native.SOURCE.read_bytes())
    assert core.BUILD == key
    assert [p.name for p in root.iterdir()] == [key]


@needs_compiler
def test_corrupt_cached_library_is_rebuilt(tmp_path):
    key = _native.build_key(_native.SOURCE.read_bytes())
    target = tmp_path / key / f"_core{SUFFIX}"
    target.parent.mkdir(parents=True)
    target.write_bytes(b"\x7fELF truncated")
    core, status = _native.load(root=tmp_path)
    assert status == "native" and core.BUILD == key
    assert target.stat().st_size > 1000


@needs_compiler
def test_unwritable_cache_falls_back_to_temp_dir(tmp_path):
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    temp = tmp_path / "tmp"
    temp.mkdir()
    lines = import_in_child({"XDG_CACHE_HOME": str(blocked),
                             "TMPDIR": str(temp)})
    assert lines == ["native"]
    assert list(temp.glob(f"repro-rps-native*/*/_core{SUFFIX}"))


@needs_compiler
def test_two_cold_imports_both_load(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC),
               XDG_CACHE_HOME=str(tmp_path))
    script = "from repro.sim import _native; print(_native.STATUS)"
    children = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
                for _ in range(2)]
    results = [child.communicate(timeout=300) for child in children]
    assert [child.returncode for child in children] == [0, 0], results
    assert [out.strip() for out, _ in results] == ["native", "native"]
    builds = list(tmp_path.glob(f"repro-rps/native/*/_core{SUFFIX}"))
    assert len(builds) == 1


def test_describe_and_coverage_follow_the_handle(monkeypatch):
    monkeypatch.setattr(_native, "core", None)
    assert _native.describe().startswith("python")
    assert _native.coverage() is None
