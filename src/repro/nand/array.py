"""Multi-channel NAND array: the full storage device.

:class:`NandArray` instantiates one :class:`~repro.nand.chip.Chip` per
die of the configured geometry and routes physically-addressed
operations to the owning die.  It is purely a state/accounting model;
time is handled by the discrete-event simulation layer
(:mod:`repro.sim`), which uses the latencies the operations return.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nand.chip import Chip
from repro.nand.geometry import NandGeometry, PhysicalPageAddress
from repro.nand.page_types import PageType, split_index
from repro.nand.sequence import SequenceScheme
from repro.nand.timing import NandTiming


class NandArray:
    """A complete NAND device (channels x chips x blocks x pages)."""

    def __init__(
        self,
        geometry: Optional[NandGeometry] = None,
        timing: Optional[NandTiming] = None,
        scheme: SequenceScheme = SequenceScheme.RPS,
        store_data: bool = False,
        track_history: bool = True,
    ) -> None:
        self.geometry = geometry or NandGeometry()
        self.timing = timing or NandTiming()
        self.scheme = scheme
        self.store_data = store_data
        self.track_history = track_history
        self.chips: List[Chip] = [
            Chip(
                chip_id,
                self.geometry.blocks_per_chip,
                self.geometry.wordlines_per_block,
                timing=self.timing,
                scheme=scheme,
                store_data=store_data,
                track_history=track_history,
            )
            for chip_id in self.geometry.iter_chip_ids()
        ]

    # ------------------------------------------------------------------
    # addressing helpers

    def chip_at(self, addr: PhysicalPageAddress) -> Chip:
        """The chip owning ``addr``."""
        self.geometry.validate(addr)
        return self.chips[self.geometry.chip_id(addr.channel, addr.chip)]

    def is_programmed(self, addr: PhysicalPageAddress) -> bool:
        """Whether the page at ``addr`` currently holds programmed data."""
        chip = self.chip_at(addr)
        wordline, ptype = split_index(addr.page)
        return chip.blocks[addr.block].is_programmed(wordline, ptype)

    # ------------------------------------------------------------------
    # operations

    def program(self, addr: PhysicalPageAddress,
                data: Optional[bytes] = None) -> float:
        """Program the page at ``addr``; returns the array latency."""
        chip = self.chip_at(addr)
        wordline, ptype = split_index(addr.page)
        return chip.program(addr.block, wordline, ptype, data)

    def read(self, addr: PhysicalPageAddress) -> "tuple[Optional[bytes], float]":
        """Read the page at ``addr``; returns ``(payload, latency)``."""
        chip = self.chip_at(addr)
        wordline, ptype = split_index(addr.page)
        return chip.read(addr.block, wordline, ptype)

    def erase(self, channel: int, chip: int, block: int) -> float:
        """Erase a block; returns the erase latency."""
        addr = PhysicalPageAddress(channel, chip, block, 0)
        return self.chip_at(addr).erase(block)

    # ------------------------------------------------------------------
    # aggregate accounting

    @property
    def total_erases(self) -> int:
        """Total block erasures across all dies."""
        return sum(chip.erases for chip in self.chips)

    @property
    def total_programs(self) -> int:
        """Total page programs across all dies."""
        return sum(chip.total_programs for chip in self.chips)

    @property
    def lsb_programs(self) -> int:
        """Total LSB-page programs across all dies."""
        return sum(chip.lsb_programs for chip in self.chips)

    @property
    def msb_programs(self) -> int:
        """Total MSB-page programs across all dies."""
        return sum(chip.msb_programs for chip in self.chips)

    @property
    def total_reads(self) -> int:
        """Total page reads across all dies."""
        return sum(chip.reads for chip in self.chips)

    def page_type_of(self, addr: PhysicalPageAddress) -> PageType:
        """Page type (LSB/MSB) of the page at ``addr``."""
        return split_index(addr.page)[1]

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"NandArray({g.channels}ch x {g.chips_per_channel}chips, "
            f"{g.blocks_per_chip} blocks, scheme={self.scheme.value})"
        )
