"""flexFTL: the paper's RPS-aware flash translation layer (Section 3).

flexFTL programs blocks under the two-phase ordering (2PO, an instance
of the RPS scheme): all LSB pages of a block first, then all its MSB
pages.  Three mechanisms build on that:

* **two-phase block management** — one active fast block and one
  active slow block per chip, connected by a FIFO slow block queue
  (:class:`~repro.core.block_manager.TwoPhaseBlockManager`);
* **adaptive page allocation** — the policy manager picks LSB or MSB
  per host write from buffer utilisation ``u`` and the quota ``q``
  (:class:`~repro.core.page_allocator.PolicyManager`);
* **per-block parity backup** — one parity page per block, persisted
  when the block's last LSB page is written, replaces per-MSB-program
  paired-page backups (:mod:`repro.core.parity_backup`).

Background garbage collection (invoked in idle times when free blocks
drop below 10 %) relocates valid pages into **MSB** pages of the active
slow block, reclaiming free (LSB-capable) blocks while replenishing
``q`` for future bursts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.block_manager import TwoPhaseBlockManager
from repro.core.page_allocator import PolicyConfig, PolicyManager, QuotaTracker
from repro.core.predictor import EwmaBurstPredictor
from repro.ftl.base import BaseFtl, FtlConfig
from repro.ftl.cursor import PhaseCursor
from repro.nand.array import NandArray
from repro.nand.geometry import PhysicalPageAddress
from repro.nand.page_types import PageType
from repro.nand.sequence import SequenceScheme
from repro.sim.ops import FlashOp
from repro.sim.queues import WriteBuffer


class FlexFtl(BaseFtl):
    """The RPS-aware FTL of the paper."""

    name = "flexFTL"
    uses_backup = True
    backup_order = "lsb"  # RPS: parity pages use fast LSB slots only

    def __init__(
        self,
        array: NandArray,
        write_buffer: WriteBuffer,
        config: Optional[FtlConfig] = None,
        policy_config: Optional[PolicyConfig] = None,
        parity_interval: int = 0,
        predictor: Optional[EwmaBurstPredictor] = None,
    ) -> None:
        """Args:
            array: an RPS (or unconstrained) NAND array.
            write_buffer: the controller's write buffer.
            config: common FTL tunables.
            policy_config: adaptive page-allocation tunables.
            parity_interval: persist an intermediate parity page after
                every this-many LSB writes within a fast block (each
                superseding the previous one).  0 — the paper's design —
                persists a single parity page per block, when its last
                LSB page is written.  Nonzero values exist for the
                parity-granularity ablation.
            predictor: optional future-write predictor (the paper's
                Section 6 extension).  When present, idle-time
                collection continues until the LSB-write headroom —
                quota and allocatable LSB pages — covers the predicted
                next burst, instead of stopping at the free-block
                threshold.
        """
        if array.scheme is SequenceScheme.FPS:
            raise ValueError(
                "flexFTL programs blocks in the 2PO order, which an "
                "FPS-enforcing device rejects; use an RPS array"
            )
        if parity_interval < 0:
            raise ValueError("parity_interval must be >= 0")
        super().__init__(array, write_buffer, config)
        self.parity_interval = parity_interval
        self.predictor = predictor
        if predictor is not None:
            self._after_host_program = self._observe_host_program
        self.policy_config = policy_config or PolicyConfig()
        self.policy = PolicyManager(self.policy_config)
        self.managers: List[TwoPhaseBlockManager] = [
            TwoPhaseBlockManager(self.wordlines)
            for _ in self.geometry.iter_chip_ids()
        ]
        total_lsb_pages = (self.data_blocks_per_chip * self.wordlines
                           * self.geometry.total_chips)
        initial_quota = max(1, int(self.policy_config.quota_fraction
                                   * total_lsb_pages))
        quota_cap = max(initial_quota,
                        int(initial_quota
                            * self.policy_config.quota_cap_factor))
        self.quota = QuotaTracker(initial_quota, quota_cap)
        #: per-chip (channel, chip) pairs precomputed for hot-path
        #: address construction
        self._coords: List[Tuple[int, int]] = [
            divmod(cid, self._cpc) for cid in self.geometry.iter_chip_ids()
        ]
        #: parity invalidations deferred until the closing MSB program
        #: has durably completed (see _flush_parity_invalidations)
        self._pending_invalidations: List[List[int]] = [
            [] for _ in self.geometry.iter_chip_ids()
        ]

    # ------------------------------------------------------------------
    # placement

    def _lsb_available(self, chip_id: int, for_gc: bool = False) -> bool:
        """An LSB page is allocatable now (fast block or a free block)."""
        if self.managers[chip_id].free_lsb_pages > 0:
            return True
        free = len(self.chips[chip_id].free_blocks)
        if for_gc:
            return free > 0
        return free > self.config.gc_reserve_blocks

    def _allocate_host_page(
        self, chip_id: int, now: float
    ) -> Optional[Tuple[PhysicalPageAddress, PageType]]:
        manager = self.managers[chip_id]
        choice = self.policy.choose(self.write_buffer.utilization,
                                    self.quota,
                                    self._lsb_available(chip_id),
                                    manager.has_slow_block)
        if choice is None:
            return None
        if choice is PageType.LSB:
            allocated = self._take_lsb(chip_id, for_gc=False)
            if allocated is None and manager.has_slow_block:
                allocated = self._take_msb(chip_id)
            return allocated
        allocated = self._take_msb(chip_id)
        if allocated is None:
            allocated = self._take_lsb(chip_id, for_gc=False)
        return allocated

    def _allocate_gc_page(
        self, chip_id: int
    ) -> Optional[Tuple[PhysicalPageAddress, PageType]]:
        # GC relocations consume slow MSB pages (replenishing q and
        # keeping LSB pages for the host); fall back to LSB pages only
        # when no slow block exists.
        allocated = self._take_msb(chip_id)
        if allocated is not None:
            return allocated
        return self._take_lsb(chip_id, for_gc=True)

    def _take_lsb(
        self, chip_id: int, for_gc: bool
    ) -> Optional[Tuple[PhysicalPageAddress, PageType]]:
        manager = self.managers[chip_id]
        fast = manager._fast
        if fast is None:
            block = self._take_free_block(chip_id, for_gc=for_gc)
            if block is None:
                return None
            fast = PhaseCursor(block, manager.wordlines, PageType.LSB)
            manager._fast = fast
            if self._trace is not None:
                self._trace.event("2po.fast_open", chip=chip_id,
                                  block=block)
        # TwoPhaseBlockManager.take_lsb, note_lsb_write and
        # _page_address, inlined without the TakenPage: the native core
        # calls this method (fast-block installs, GC relocations with no
        # slow block), so it stays fast.  Keep in sync with
        # :meth:`repro.core.block_manager.TwoPhaseBlockManager.take_lsb`;
        # tests/test_take_lsb_inline.py pins the two together.
        wordline = fast._next
        fast._next = wordline + 1
        block = fast.block
        self.quota.value -= 1
        if fast._next >= manager.wordlines:
            # Last LSB page of the fast block: the block joins the
            # SBQueue and its accumulated parity page is persisted.
            manager._sbqueue.append(
                PhaseCursor(block, manager.wordlines, PageType.MSB))
            manager._fast = None
            if self._trace is not None:
                self._trace.event("2po.lsb_complete", chip=chip_id,
                                  block=block)
            self._enqueue_parity_backup(
                chip_id,
                owner=self.mapping.global_block_of(chip_id, block))
        elif self.parity_interval > 0 \
                and (wordline + 1) % self.parity_interval == 0:
            # Ablation mode: intermediate parity checkpoints, each
            # superseding the block's previous one.
            self._enqueue_parity_backup(
                chip_id,
                owner=self.mapping.global_block_of(chip_id, block))
        # tuple.__new__ skips the NamedTuple __new__ wrapper
        channel, chip = self._coords[chip_id]
        return (tuple.__new__(PhysicalPageAddress,
                              (channel, chip, block, 2 * wordline)),
                PageType.LSB)

    def _take_msb(
        self, chip_id: int
    ) -> Optional[Tuple[PhysicalPageAddress, PageType]]:
        taken = self.managers[chip_id].take_msb()
        if taken is None:
            return None
        self.quota.note_msb_write()
        addr = self._page_address(chip_id, taken.block, taken.wordline,
                                  PageType.MSB)
        if taken.phase_done:
            # Block fully written: GC-eligible, parity page now dead.
            self._mark_block_full(chip_id, taken.block)
        return addr, PageType.MSB

    # ------------------------------------------------------------------
    # hooks

    def _on_block_full(self, chip_id: int, block: int) -> None:
        # The paper invalidates a block's parity page "once the pages
        # of a slow block are all written".  This hook runs when the
        # final MSB program *issues*; invalidating here would open a
        # window where a power loss during that very program destroys
        # an LSB page whose parity is already gone.  Defer until the
        # chip's next operation — per-chip serialisation guarantees
        # the closing program has completed by then.
        gb = self.mapping.global_block_of(chip_id, block)
        self._pending_invalidations[chip_id].append(gb)

    def _flush_parity_invalidations(self, chip_id: int) -> None:
        pending = self._pending_invalidations[chip_id]
        if not pending:
            return
        backup = self.chips[chip_id].backup
        if backup is not None:
            for gb in pending:
                backup.invalidate(gb)
        pending.clear()

    def _release_block(self, chip_id: int, block: int) -> None:
        # A retired block may be the active fast block, sit in the
        # SBQueue, or still own a live parity page — drop all three.
        self.managers[chip_id].discard_block(block)
        gb = self.mapping.global_block_of(chip_id, block)
        backup = self.chips[chip_id].backup
        if backup is not None:
            backup.invalidate(gb)
        pending = self._pending_invalidations[chip_id]
        if gb in pending:
            pending.remove(gb)

    def next_op(self, chip_id: int, now: float) -> Optional[FlashOp]:
        """Deferred parity invalidations, then the base dispatch.

        The native core recognises this method by identity and runs its
        C mirror (``flex_next_op`` in ``_core.c``) in its place.
        """
        if self._pending_invalidations[chip_id]:
            self._flush_parity_invalidations(chip_id)
        return BaseFtl.next_op(self, chip_id, now)

    def _observe_host_program(self, chip_id, addr, ptype, now):
        # installed as the base _after_host_program hook only when a
        # predictor exists (see __init__), so predictor-less runs skip
        # the per-write hook call entirely
        self.predictor.observe_write(now)

    # ------------------------------------------------------------------
    # predictor-driven just-in-time collection (Section 6 extension)

    def _lsb_headroom(self, chip_id: int) -> int:
        """LSB pages this chip could serve before running dry."""
        manager = self.managers[chip_id]
        free_blocks = len(self.chips[chip_id].free_blocks)
        return manager.free_lsb_pages + free_blocks * self.wordlines

    def _predictor_wants_gc(self, chip_id: int,
                            now: "Optional[float]") -> bool:
        if self.predictor is None or not self.config.bg_gc_enabled:
            return False
        predicted = self.predictor.predicted_burst_pages(now)
        if predicted <= 0:
            return False
        per_chip_demand = predicted / self.geometry.total_chips
        quota_short = self.quota.value < min(self.quota.cap, predicted)
        capacity_short = self._lsb_headroom(chip_id) < per_chip_demand
        if not (quota_short or capacity_short):
            return False
        return self._select_victim(
            chip_id, self._bg_min_invalid()) is not None

    def wants_background_gc(self, chip_id: int) -> bool:
        """Base condition plus the predictor's demand trigger."""
        if super().wants_background_gc(chip_id):
            return True
        # No timestamp here: use the estimate as-is (the timestamped
        # decision happens in background_op anyway).
        return self._predictor_wants_gc(chip_id, now=None)

    def background_op(self, chip_id: int, now: float):
        """Idle-time work, including predictor-driven collection."""
        self._flush_parity_invalidations(chip_id)
        op = super().background_op(chip_id, now)
        if op is not None:
            return op
        state = self.chips[chip_id]
        if state.gc is not None or not self._predictor_wants_gc(chip_id,
                                                                now):
            return None
        victim = self._select_victim(chip_id, self._bg_min_invalid())
        if victim is None:
            return None
        self._begin_gc(chip_id, victim, background=True)
        return self._gc_step(chip_id)

    # ------------------------------------------------------------------
    # introspection

    def sbqueue_length(self, chip_id: int) -> int:
        """Blocks in the chip's slow block queue."""
        return self.managers[chip_id].sbqueue_length

    def counters(self):
        """Base counters plus flexFTL-specific state."""
        base = super().counters()
        base["quota"] = self.quota.value
        base["lsb_decisions"] = self.policy.decisions[PageType.LSB]
        base["msb_decisions"] = self.policy.decisions[PageType.MSB]
        return base
