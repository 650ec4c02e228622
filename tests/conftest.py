"""Shared fixtures for the test suite."""

import pytest

from repro.nand.geometry import NandGeometry
from tests.helpers import kernel  # noqa: F401  (shared fixture)


@pytest.fixture
def tiny_geometry():
    """2 channels x 1 chip, 8 blocks of 8 pages — for state tests."""
    return NandGeometry(channels=2, chips_per_channel=1,
                        blocks_per_chip=8, pages_per_block=8,
                        page_size=256)


@pytest.fixture
def small_geometry():
    """2x2 chips, 16 blocks of 16 pages — for small system tests."""
    return NandGeometry(channels=2, chips_per_channel=2,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=512)


@pytest.fixture
def medium_geometry():
    """4x2 chips, 32 blocks of 32 pages — for integration runs."""
    return NandGeometry(channels=4, chips_per_channel=2,
                        blocks_per_chip=32, pages_per_block=32,
                        page_size=4096)

