"""Shared system builders, seeded generators and fixtures for the
test suite."""

import contextlib
import random

import pytest

from repro.core.flexftl import FlexFtl
from repro.experiments import runner
from repro.ftl.base import FtlConfig
from repro.ftl.pageftl import PageFtl
from repro.ftl.parityftl import ParityFtl
from repro.ftl.rtfftl import RtfFtl
from repro.nand.array import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.sequence import SequenceScheme
from repro.nand.timing import NandTiming
from repro.sim.controller import StorageController
from repro.sim.kernel import HeapSimulator, Simulator
from repro.sim.queues import WriteBuffer
from repro.sim.stats import SimStats

#: FTL class -> device sequence scheme it requires.
FTL_SCHEMES = {
    PageFtl: SequenceScheme.FPS,
    ParityFtl: SequenceScheme.FPS,
    RtfFtl: SequenceScheme.FPS,
    FlexFtl: SequenceScheme.RPS,
}


def random_page_walk(seed, wordlines, steps):
    """Seeded stream of arbitrary ``(wordline, ptype)`` candidates.

    Deliberately scheme-ignorant: roughly half the candidates violate
    an ordering constraint or re-target a programmed page, which is
    exactly what a differential legality test wants to see.
    """
    from repro.nand.page_types import PageType

    rng = random.Random(seed)
    return [
        (rng.randrange(wordlines),
         PageType.MSB if rng.random() < 0.5 else PageType.LSB)
        for _ in range(steps)
    ]


def random_legal_order(seed, wordlines, scheme):
    """A full in-block program order legal under ``scheme``.

    Built constraint-first: at every step one candidate is drawn
    uniformly from the pages :func:`constraint_violations` currently
    permits, so the result exercises the *whole* legal order space of
    the scheme, not just the canonical zig-zag.
    """
    from repro.nand.page_types import PageType
    from repro.nand.sequence import constraint_violations

    rng = random.Random(seed)
    programmed = set()

    def is_programmed(wordline, ptype):
        return (wordline, ptype) in programmed

    order = []
    total = 2 * wordlines
    while len(order) < total:
        candidates = [
            (wordline, ptype)
            for wordline in range(wordlines)
            for ptype in (PageType.LSB, PageType.MSB)
            if (wordline, ptype) not in programmed
            and not constraint_violations(
                is_programmed, wordlines, wordline, ptype, scheme)
        ]
        assert candidates, f"scheme {scheme} wedged after {order}"
        choice = rng.choice(candidates)
        programmed.add(choice)
        order.append(choice)
    return order


def build_small_system(ftl_cls, geometry, buffer_pages=32,
                       ftl_config=None, timing=None, **ftl_kwargs):
    """Assemble a complete simulated system for tests.

    Returns ``(sim, array, buffer, ftl, controller)``.
    """
    scheme = FTL_SCHEMES[ftl_cls]
    sim = Simulator()
    array = NandArray(geometry, timing or NandTiming(), scheme=scheme)
    buffer = WriteBuffer(buffer_pages)
    ftl = ftl_cls(array, buffer, ftl_config or FtlConfig(), **ftl_kwargs)
    stats = SimStats(page_size=geometry.page_size)
    controller = StorageController(sim, array, ftl, buffer, stats)
    return sim, array, buffer, ftl, controller


def _heap_simulator(bucket_width=None):
    """Drop-in for :class:`~repro.sim.kernel.Simulator` in
    :func:`~repro.experiments.runner.build_system` (the heap has no
    buckets, so the width is ignored)."""
    del bucket_width
    return HeapSimulator()


@contextlib.contextmanager
def heap_kernel():
    """Build every system inside the block on the heap oracle kernel.

    Patches the one place the simulator chooses its event queue,
    ``repro.experiments.runner.Simulator``, so ``build_system`` and
    everything built through it (experiments, fleet devices) runs on
    :class:`~repro.sim.kernel.HeapSimulator`.  Fleet workers forked
    inside the block inherit the patch.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Simulator", _heap_simulator)
        yield


@pytest.fixture
def kernel(request):
    """The event-queue kernel a full-system test builds on.

    Parametrize indirectly with ``"calendar"`` (the shipped kernel, and
    the default) or ``"heap"`` (the test-only oracle, via
    :func:`heap_kernel`); the fixture's value is the kernel's name.
    """
    name = getattr(request, "param", "calendar")
    if name not in ("calendar", "heap"):
        raise ValueError(f"unknown kernel {name!r}")
    with heap_kernel() if name == "heap" else contextlib.nullcontext():
        yield name
