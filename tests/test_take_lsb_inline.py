"""Differential test: flexFTL's inlined ``_take_lsb`` against its
general composition.

``FlexFtl._take_lsb`` open-codes the fast-block take (the native core
calls it for every fast-block install and every GC relocation that
finds no slow block, so it stays fast).  The general form it must match
is a composition of the plain methods:

    install_fast_block + TwoPhaseBlockManager.take_lsb
    + QuotaTracker.note_lsb_write + _page_address + the parity enqueue

A seeded walk of LSB takes (host and GC), MSB takes and block recycles
drives a small flexFTL through installs, mid-block takes, last-LSB
takes and refusals.  Before every LSB take the FTL is cloned; the
inline runs on one clone and the composition on the other, and the
returned address and type, both cursors, the SBQueue, the quota, the
free pool and every chip's pending parity ops must agree.
"""

import copy
import random

import pytest

from repro.core.flexftl import FlexFtl
from repro.nand.geometry import NandGeometry
from repro.nand.page_types import PageType

from tests.helpers import build_small_system

GEOMETRY = NandGeometry(channels=1, chips_per_channel=2,
                        blocks_per_chip=10, pages_per_block=16,
                        page_size=512)


def general_take_lsb(ftl, chip_id, for_gc):
    """``_take_lsb`` written with the general methods."""
    manager = ftl.managers[chip_id]
    if manager.needs_fast_block:
        block = ftl._take_free_block(chip_id, for_gc=for_gc)
        if block is None:
            return None
        manager.install_fast_block(block)
    taken = manager.take_lsb()
    ftl.quota.note_lsb_write()
    owner = ftl.mapping.global_block_of(chip_id, taken.block)
    if taken.phase_done:
        ftl._enqueue_parity_backup(chip_id, owner=owner)
    elif ftl.parity_interval > 0 \
            and (taken.wordline + 1) % ftl.parity_interval == 0:
        ftl._enqueue_parity_backup(chip_id, owner=owner)
    return (ftl._page_address(chip_id, taken.block, taken.wordline,
                              PageType.LSB), PageType.LSB)


def allocation_state(ftl):
    """What a take may change, per chip."""
    state = []
    for chip_id, manager in enumerate(ftl.managers):
        chip = ftl.chips[chip_id]
        fast = manager._fast
        state.append({
            "fast": None if fast is None else (fast.block, fast._next,
                                               fast.ptype),
            "sbqueue": [(cursor.block, cursor._next, cursor.ptype)
                        for cursor in manager._sbqueue],
            "free": list(chip.free_blocks),
            "pending": [(op.kind, tuple(op.addr), op.tag, op.lpn)
                        for op in chip.pending],
            "parity": sorted(chip.backup._live.items()),
        })
    return {"chips": state, "quota": ftl.quota.value,
            "backup_programs": ftl.backup_programs}


def recycle_full_block(ftl, chip_id, rng):
    """Return a full block to the free pool, as an erase would."""
    full = ftl.chips[chip_id].full_blocks
    if full:
        block = rng.choice(sorted(full))
        full.discard(block)
        ftl.chips[chip_id].free_blocks.append(block)


def walk(seed, parity_interval, steps=300):
    """Run the seeded walk; returns how often each case was seen."""
    rng = random.Random(seed)
    ftl = build_small_system(FlexFtl, GEOMETRY,
                             parity_interval=parity_interval)[3]
    seen = {"install": 0, "refused": 0, "last_lsb": 0, "gc": 0, "host": 0,
            "interval_parity": 0}
    for _ in range(steps):
        chip_id = rng.randrange(GEOMETRY.total_chips)
        action = rng.random()
        if action < 0.25:
            ftl._take_msb(chip_id)
            # a filled block's parity dies before the chip's next op
            ftl._flush_parity_invalidations(chip_id)
            continue
        if action < 0.35:
            recycle_full_block(ftl, chip_id, rng)
            continue
        for_gc = rng.random() < 0.3
        inline, general = copy.deepcopy(ftl), copy.deepcopy(ftl)
        before = ftl.managers[chip_id]._fast
        pending = len(ftl.chips[chip_id].pending)
        got = inline._take_lsb(chip_id, for_gc)
        want = general_take_lsb(general, chip_id, for_gc)
        assert got == want
        if got is not None:
            assert type(got[0]) is type(want[0])
            assert got[1] is want[1]
        assert allocation_state(inline) == allocation_state(general)
        ftl = inline
        if got is None:
            seen["refused"] += 1
            continue
        seen["gc" if for_gc else "host"] += 1
        if before is None:
            seen["install"] += 1
        if ftl.managers[chip_id]._fast is None:
            seen["last_lsb"] += 1
        elif len(ftl.chips[chip_id].pending) > pending:
            seen["interval_parity"] += 1
    return seen


@pytest.mark.parametrize("parity_interval", [0, 4])
@pytest.mark.parametrize("seed", range(6))
def test_take_lsb_matches_general_form(seed, parity_interval):
    seen = walk(seed, parity_interval)
    for case in ("install", "refused", "last_lsb", "gc", "host"):
        assert seen[case] > 0, (case, seen)
    if parity_interval:
        assert seen["interval_parity"] > 0, seen
    else:
        assert seen["interval_parity"] == 0, seen
