"""Geometry, accumulator and precision of the digital in-memory-compute tile.

The tile holds 32 weight rows of 1024 bits and a 1024-bit input buffer.
Rows and buffer are addressed in 256-bit sectors, and each sector in four
64-bit slices gated by a valid mask, matching the width of one vector
register transfer. A compute accumulates into a signed 24-bit partial sum
with two's-complement wraparound.

This module imports no numpy, so the timing half, the lowering and the
command line can read the tile's shape without loading it; ``tile`` holds
the functional model.
"""

from __future__ import annotations

from dataclasses import dataclass

ROWS = 32
ROW_BITS = 1024
ROW_BYTES = ROW_BITS // 8
SECTORS = 4
SECTOR_BYTES = ROW_BYTES // SECTORS
SLICE_BYTES = 8
SLICES_PER_SECTOR = SECTOR_BYTES // SLICE_BYTES

PARTIAL_BITS = 24
PARTIAL_MIN = -(1 << (PARTIAL_BITS - 1))


def wrap_partial(value):
    """Reduce an integer (or an int64 array, elementwise) into the signed
    24-bit accumulator range.

    The accumulator wraps on overflow instead of saturating, so reduction
    is plain two's-complement truncation to 24 bits.
    """
    return ((value - PARTIAL_MIN) & ((1 << PARTIAL_BITS) - 1)) + PARTIAL_MIN


def value_range(bits: int, signed: bool) -> tuple[int, int]:
    """Inclusive value range of one element at the given width."""
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


@dataclass(frozen=True)
class PrecisionMode:
    """Element width and per-operand signedness for in-memory MACs.

    Widths 1, 2 and 4 run on the tile (1024, 512 or 256 MACs per compute).
    Widths 8 and 16 are representable only so that layer descriptors can
    carry precisions the DIMC path has to reject; no tile is built for
    them. Signedness is independent per operand side, so signed weights
    against unsigned activations (and any other mix) are legal.
    """

    bits: int = 4
    input_signed: bool = True
    weight_signed: bool = True

    def __post_init__(self):
        if self.bits not in (1, 2, 4, 8, 16):
            raise ValueError(f"unsupported element width: {self.bits}")

    @property
    def dimc_supported(self) -> bool:
        return self.bits <= 4

    def input_range(self) -> tuple[int, int]:
        return value_range(self.bits, self.input_signed)

    def weight_range(self) -> tuple[int, int]:
        return value_range(self.bits, self.weight_signed)


@dataclass(frozen=True)
class QuantConfig:
    """Requantization applied by a final compute: ReLU, arithmetic right
    shift, then unsigned saturation to ``out_bits``. The result is padded
    into a 4-bit nibble regardless of ``out_bits``."""

    right_shift: int = 0
    out_bits: int = 4

    def __post_init__(self):
        if self.right_shift < 0:
            raise ValueError(f"right_shift must be >= 0, got {self.right_shift}")
        if self.out_bits not in (1, 2, 4):
            raise ValueError(f"out_bits must be 1, 2 or 4, got {self.out_bits}")

    @property
    def max_value(self) -> int:
        return (1 << self.out_bits) - 1
