"""Loader for the native dispatch core (``_core.c``).

On first import the C source next to this file is compiled with the
interpreter's own ``sysconfig`` compiler and flags (plus ``-O2
-ffp-contract=off``, so every float result is bit-identical to
Python's) and the shared library is cached under
``$XDG_CACHE_HOME/repro-rps/native/<abi>-<sha256>/`` (``~/.cache`` when
``XDG_CACHE_HOME`` is unset), or under the system temp directory when
that is not writable.  The digest covers the source and the compile
command, so an edited source builds afresh; a build is published with
an atomic :func:`os.replace`, so concurrent first imports are safe.

On any failure — no compiler, a failed build, a library that will not
load — the simulator stays on its pure-Python code and :data:`STATUS`
says why.  There is no switch: :data:`core` is the loaded module or
None, and :meth:`repro.sim.kernel.Simulator.run` uses it when present.
The pure-Python code is the reference; ``tests/test_native_core.py``
checks the two are byte-identical.
"""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Any, Dict, List, Optional, Tuple

#: the C source of the core
SOURCE = Path(__file__).with_name("_core.c")

#: flags appended to the interpreter's own CFLAGS
EXTRA_CFLAGS = ("-O2", "-ffp-contract=off")

#: the loaded extension module, or None (pure Python)
core: Optional[ModuleType] = None

#: ``"native"``, or ``"python: <reason>"`` when the core is not in use
STATUS = "python: not loaded"


def cache_root() -> Path:
    """Directory holding the cached builds."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-rps" / "native"


def _compile_commands(source: Path, obj: Path, lib: Path, build: str
                      ) -> List[List[str]]:
    """Compile and link commands from the interpreter's sysconfig."""
    var = sysconfig.get_config_var
    cc, ldshared = var("CC"), var("LDSHARED")
    if not cc or not ldshared:
        raise RuntimeError("no C compiler configured in sysconfig")
    paths = sysconfig.get_paths()
    includes = sorted({paths["include"], paths["platinclude"]})
    compile_cmd = (shlex.split(cc) + shlex.split(var("CCSHARED") or "")
                   + shlex.split(var("CFLAGS") or "") + list(EXTRA_CFLAGS)
                   + [f"-I{path}" for path in includes]
                   + [f'-DREPRO_CORE_BUILD="{build}"',
                      "-c", str(source), "-o", str(obj)])
    link_cmd = shlex.split(ldshared) + [str(obj), "-o", str(lib)]
    return [compile_cmd, link_cmd]


def build_key(source_bytes: bytes) -> str:
    """``<abi>-<sha256>`` naming one build of ``source_bytes``."""
    abi = sysconfig.get_config_var("SOABI") or sys.implementation.cache_tag
    digest = hashlib.sha256(source_bytes)
    placeholder = Path("core")
    for command in _compile_commands(placeholder, placeholder, placeholder,
                                     ""):
        digest.update("\0".join(command).encode())
    return f"{abi}-{digest.hexdigest()}"


def _import(path: Path, build: str) -> ModuleType:
    spec = importlib.util.spec_from_file_location(f"{__name__}._core", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if getattr(module, "BUILD", None) != build:
        raise ImportError(f"{path} is not build {build}")
    return module


def _build(source: Path, target: Path, build: str) -> None:
    """Compile ``source`` and publish the library at ``target``."""
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent,
                                     prefix=".build-") as scratch:
        obj = Path(scratch) / "_core.o"
        lib = Path(scratch) / target.name
        for command in _compile_commands(source, obj, lib, build):
            try:
                done = subprocess.run(command, capture_output=True,
                                      text=True, timeout=300)
            except FileNotFoundError:
                raise RuntimeError(
                    f"compiler not found: {command[0]}") from None
            if done.returncode != 0:
                lines = (done.stderr or done.stdout).strip().splitlines()
                raise RuntimeError(
                    f"compile failed: {lines[-1] if lines else command[0]}")
        os.replace(lib, target)


def load(source: Path = SOURCE, root: Optional[Path] = None
         ) -> Tuple[Optional[ModuleType], str]:
    """Build (on a cache miss) and import the core.

    Returns ``(module, "native")``, or ``(None, "python: <reason>")``
    when the core cannot be used; never raises.
    """
    try:
        source_bytes = Path(source).read_bytes()
        key = build_key(source_bytes)
    except Exception as exc:  # no source, no compiler configuration
        return None, f"python: {exc}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    user = os.getuid() if hasattr(os, "getuid") else "user"
    roots = [root] if root is not None else [
        cache_root(),
        Path(tempfile.gettempdir()) / f"repro-rps-native-{user}"]
    reason = "no writable cache directory"
    for base in roots:
        target = Path(base) / key / f"_core{suffix}"
        if target.exists():
            try:
                return _import(target, key), "native"
            except Exception:
                pass  # corrupt or stale: rebuild below
        try:
            _build(Path(source), target, key)
        except OSError as exc:  # the cache directory is not writable
            reason = f"cannot build in {base}: {exc}"
            continue
        except Exception as exc:
            return None, f"python: {exc}"
        try:
            return _import(target, key), "native"
        except Exception as exc:
            return None, f"python: cannot load the core: {exc}"
    return None, f"python: {reason}"


def describe() -> str:
    """Which core runs: ``"native"`` or ``"python: <reason>"``."""
    if core is None and STATUS == "native":
        return "python: disabled"
    return STATUS


def coverage() -> Optional[Dict[str, Any]]:
    """Native-coverage counters since the last :func:`reset_coverage`.

    None on pure Python, otherwise a dict of plain counts:

    - ``native``: events handled natively;
    - ``python``: ``{reason: events passed to Python}``.  Reasons:
      ``handler`` (no native implementation), ``patched`` (a class
      method the core replaces was patched), ``subclass``,
      ``injector``, ``execute`` (``_execute`` patched on the instance:
      an OpLog, a test), ``args``;
    - ``callouts``: ``{layer: calls}``, the core's calls into Python
      code by the layer called (``nand``, ``ftl``, ``host``,
      ``scenario``, ``physics``, ``tracer``, ``kernel``,
      ``controller``); value-type constructors are not counted;
    - ``flushes``: ``{cause: count}``, the times the core dropped its
      reference cache, by the layer whose callout caused it, or
      ``handler`` for an event handled in Python.

    The counts depend only on the run's inputs, never on the host's
    speed.
    """
    return core.coverage() if core is not None else None


def reset_coverage() -> None:
    """Zero the coverage counters."""
    if core is not None:
        core.reset_coverage()


def _stock(cls: type, name: str) -> Any:
    """The method ``name`` as defined on ``cls`` (or the base defining
    it), unwrapped from any ``functools.wraps`` wrappers."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return inspect.unwrap(klass.__dict__[name])
    raise AttributeError(f"{cls.__name__}.{name}")


def _stock_refs() -> Dict[str, Any]:
    """The classes, stock methods and constants the core binds to.

    Called by the core on its first run.  ``stock`` lists every
    ``(class, name, function)`` the core mirrors, plus every method and
    property the Python form of a mirrored method calls on its way (the
    native path skips those too), short of the value types
    (``PhaseCursor``, ``PageType``, the address tuple); a run whose
    classes no longer resolve one of them to the stock function (a test
    or a profiler patched it) keeps every handler on Python.
    """
    import heapq

    from repro.core.block_manager import TwoPhaseBlockManager
    from repro.core.flexftl import FlexFtl
    from repro.core.page_allocator import PolicyManager, QuotaTracker
    from repro.ftl.base import BaseFtl
    from repro.ftl.cursor import FpsCursor, PhaseCursor
    from repro.ftl.mapping import MappingTable
    from repro.ftl.pageftl import PageFtl
    from repro.nand.array import NandArray
    from repro.nand.block import Block
    from repro.nand.chip import Chip
    from repro.nand.geometry import NandGeometry, PhysicalPageAddress
    from repro.nand.page_types import PageType
    from repro.qos.arbiter import (
        Arbiter,
        DeficitRoundRobinArbiter,
        FifoArbiter,
        RoundRobinArbiter,
        WeightedRoundRobinArbiter,
    )
    from repro.qos.host import MultiTenantHost, TenantCompletion
    from repro.qos.queues import QueuedCommand, SubmissionQueue
    from repro.qos.slo import SloAccountant, TenantAccount, _ChainedHook
    from repro.qos.throttle import AdmissionGate
    from repro.scenarios.host import StreamingClosedLoopHost
    from repro.sim import kernel
    from repro.sim.controller import StorageController
    from repro.sim.host import ClosedLoopHost, StreamCompletion
    from repro.sim.kernel import Event, Simulator
    from repro.sim.ops import FlashOp, OpKind
    from repro.sim.queues import REQUEST_OK, BufferedWrite, Request, \
        RequestKind, WriteBuffer
    from repro.sim.stats import SimStats

    replaced = (
        (Simulator, ("_push", "_advance_day", "schedule")),
        (StorageController, ("_on_op_done", "_pump", "_drain_admissions",
                             "_next_read_op", "_execute",
                             "_complete_read_page", "_complete_request",
                             "submit", "_submit_read", "host_idle",
                             "pending_admissions")),
        (FlexFtl, ("next_op", "_gc_step", "_allocate_gc_page",
                   "_allocate_host_page", "_lsb_available", "_take_msb",
                   "_take_lsb",
                   "wants_background_gc", "_predictor_wants_gc",
                   "background_op", "_flush_parity_invalidations")),
        (BaseFtl, ("next_op", "_host_write_op", "_gc_step",
                   "_note_block_write", "_page_address",
                   "wants_background_gc", "_bg_min_invalid",
                   "background_op", "_select_victim", "_victim_score")),
        (PageFtl, ("_allocate", "_allocate_host_page",
                   "_allocate_gc_page")),
        (FpsCursor, ("take", "done")),
        (PolicyManager, ("choose", "_alternate", "_record")),
        (TwoPhaseBlockManager, ("take_msb", "has_slow_block",
                                "free_lsb_pages")),
        (QuotaTracker, ("note_msb_write",)),
        (MappingTable, ("lookup", "map_write", "global_block_of",
                        "invalid_count", "note_block_erased")),
        (NandArray, ("program", "read", "erase", "is_programmed",
                     "chip_at")),
        (Chip, ("program", "read", "erase")),
        (Block, ("program", "read", "erase", "is_programmed")),
        (NandGeometry, ("address_of", "validate", "chip_id", "ppn",
                        "chip_coords")),
        (WriteBuffer, ("contains", "pop", "push", "utilization", "__len__",
                       "is_empty")),
        (SimStats, ("note_host_page_write", "note_request_complete",
                    "note_arrival")),
        (StreamingClosedLoopHost, ("_issue", "_advance")),
        (ClosedLoopHost, ("_issue", "_advance")),
        (StreamCompletion, ("__init__", "__call__")),
        (Request, ("__init__", "__post_init__")),
        (MultiTenantHost, ("_enqueue", "_on_done", "_pump", "_wake")),
        (TenantCompletion, ("__init__", "__call__")),
        (SubmissionQueue, ("push", "pop", "is_empty", "head", "__len__")),
        (QueuedCommand, ("__init__",)),
        (AdmissionGate, ("can_admit", "note_dispatch", "note_complete")),
        (Arbiter, ("note_empty",)),
        (FifoArbiter, ("select",)),
        (RoundRobinArbiter, ("select",)),
        (WeightedRoundRobinArbiter, ("select",)),
        (DeficitRoundRobinArbiter, ("select", "note_empty")),
        (SloAccountant, ("record", "account")),
        (TenantAccount, ("record",)),
        (_ChainedHook, ("__call__",)),
    )
    stock = tuple((cls, name, _stock(cls, name))
                  for cls, names in replaced for name in names)
    return {
        "Simulator": Simulator,
        "StorageController": StorageController,
        "FlexFtl": FlexFtl,
        "MappingTable": MappingTable,
        "WriteBuffer": WriteBuffer,
        "NandGeometry": NandGeometry,
        "FlashOp": FlashOp,
        "BufferedWrite": BufferedWrite,
        "Request": Request,
        "PhysicalPageAddress": PhysicalPageAddress,
        "StreamingClosedLoopHost": StreamingClosedLoopHost,
        "ClosedLoopHost": ClosedLoopHost,
        "NandArray": NandArray,
        "Chip": Chip,
        "Block": Block,
        "SimStats": SimStats,
        "Event": Event,
        "StreamCompletion": StreamCompletion,
        "FpsCursor": FpsCursor,
        "MultiTenantHost": MultiTenantHost,
        "TenantCompletion": TenantCompletion,
        "SubmissionQueue": SubmissionQueue,
        "QueuedCommand": QueuedCommand,
        "AdmissionGate": AdmissionGate,
        "SloAccountant": SloAccountant,
        "TenantAccount": TenantAccount,
        "ChainedHook": _ChainedHook,
        "FifoArbiter": FifoArbiter,
        "RoundRobinArbiter": RoundRobinArbiter,
        "WeightedRoundRobinArbiter": WeightedRoundRobinArbiter,
        "DeficitRoundRobinArbiter": DeficitRoundRobinArbiter,
        "fifo_select": _stock(FifoArbiter, "select"),
        "rr_select": _stock(RoundRobinArbiter, "select"),
        "wrr_select": _stock(WeightedRoundRobinArbiter, "select"),
        "drr_select": _stock(DeficitRoundRobinArbiter, "select"),
        "note_empty": _stock(Arbiter, "note_empty"),
        "drr_note_empty": _stock(DeficitRoundRobinArbiter, "note_empty"),
        "base_next_op": _stock(BaseFtl, "next_op"),
        "host_write_op": _stock(BaseFtl, "_host_write_op"),
        "gc_step": _stock(BaseFtl, "_gc_step"),
        "note_block_write": _stock(BaseFtl, "_note_block_write"),
        "note_block_erased": _stock(MappingTable, "note_block_erased"),
        "page_allocate": _stock(PageFtl, "_allocate"),
        "page_alloc_host": _stock(PageFtl, "_allocate_host_page"),
        "page_alloc_gc": _stock(PageFtl, "_allocate_gc_page"),
        "page_address": _stock(BaseFtl, "_page_address"),
        "note_arrival": _stock(SimStats, "note_arrival"),
        "qos_enqueue": _stock(MultiTenantHost, "_enqueue"),
        "qos_wake": _stock(MultiTenantHost, "_wake"),
        "slo_record": _stock(SloAccountant, "record"),
        "queue_push": _stock(SubmissionQueue, "push"),
        "queue_pop": _stock(SubmissionQueue, "pop"),
        "can_admit": _stock(AdmissionGate, "can_admit"),
        "note_dispatch": _stock(AdmissionGate, "note_dispatch"),
        "note_complete": _stock(AdmissionGate, "note_complete"),
        "ERASE": OpKind.ERASE,
        "REQUEST_OK": REQUEST_OK,
        "push": _stock(Simulator, "_push"),
        "on_op_done": _stock(StorageController, "_on_op_done"),
        "execute": _stock(StorageController, "_execute"),
        "flex_next_op": _stock(FlexFtl, "next_op"),
        "lookup": _stock(MappingTable, "lookup"),
        "stream_issue": _stock(StreamingClosedLoopHost, "_issue"),
        "closed_issue": _stock(ClosedLoopHost, "_issue"),
        "base_wants_gc": _stock(BaseFtl, "wants_background_gc"),
        "flex_wants_gc": _stock(FlexFtl, "wants_background_gc"),
        "bg_min_invalid": _stock(BaseFtl, "_bg_min_invalid"),
        "predictor_wants_gc": _stock(FlexFtl, "_predictor_wants_gc"),
        "array_program": _stock(NandArray, "program"),
        "array_read": _stock(NandArray, "read"),
        "array_erase": _stock(NandArray, "erase"),
        "is_programmed": _stock(NandArray, "is_programmed"),
        "complete_request": _stock(StorageController, "_complete_request"),
        "note_request_complete": _stock(SimStats, "note_request_complete"),
        "stream_advance": _stock(StreamingClosedLoopHost, "_advance"),
        "closed_advance": _stock(ClosedLoopHost, "_advance"),
        "schedule": _stock(Simulator, "schedule"),
        "check_schedule": kernel._check_schedule,
        "select_victim": _stock(BaseFtl, "_select_victim"),
        "victim_score": _stock(BaseFtl, "_victim_score"),
        "global_block_of": _stock(MappingTable, "global_block_of"),
        "invalid_count": _stock(MappingTable, "invalid_count"),
        "base_background_op": _stock(BaseFtl, "background_op"),
        "flex_background_op": _stock(FlexFtl, "background_op"),
        "flush_parity": _stock(FlexFtl, "_flush_parity_invalidations"),
        "PROGRAM": OpKind.PROGRAM,
        "READ": OpKind.READ,
        "REQUEST_READ": RequestKind.READ,
        "LSB": PageType.LSB,
        "MSB": PageType.MSB,
        "PhaseCursor": PhaseCursor,
        "heappush": heapq.heappush,
        "heappop": heapq.heappop,
        "stock": stock,
    }


core, STATUS = load()
