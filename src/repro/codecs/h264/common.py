"""Shared helpers of the H.264 encoder/decoder pair."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codecs.h264 import intra
from repro.codecs.h264.cavlc import nc_context

#: Offsets of the sixteen 4x4 luma blocks inside a macroblock, raster order.
LUMA_OFFSETS: Tuple[Tuple[int, int], ...] = tuple(
    (4 * (index % 4), 4 * (index // 4)) for index in range(16)
)

#: Offsets of the four 4x4 chroma blocks inside an 8x8 chroma macroblock.
CHROMA_OFFSETS: Tuple[Tuple[int, int], ...] = ((0, 0), (4, 0), (0, 4), (4, 4))


def blocks_to_square(blocks: np.ndarray) -> np.ndarray:
    """A raster-ordered ``(n * n, 4, 4)`` stack of 4x4 blocks as one ``4n x 4n`` array."""
    side = math.isqrt(len(blocks))
    return blocks.reshape(side, side, 4, 4).swapaxes(1, 2).reshape(4 * side, 4 * side)


def luma_quadrant(block_index: int) -> int:
    """8x8 quadrant (0..3) of the 4x4 luma block ``block_index``."""
    row = block_index // 4
    col = block_index % 4
    return (row // 2) * 2 + (col // 2)


class TcGrid:
    """Per-picture TotalCoeff grid: the CAVLC nC context state."""

    def __init__(self, width_blocks: int, height_blocks: int) -> None:
        self.width = width_blocks
        self.height = height_blocks
        self._tc: List[List[Optional[int]]] = [
            [None] * width_blocks for _ in range(height_blocks)
        ]

    def get(self, bx: int, by: int) -> Optional[int]:
        if 0 <= bx < self.width and 0 <= by < self.height:
            return self._tc[by][bx]
        return None

    def set(self, bx: int, by: int, total_coeff: int) -> None:
        self._tc[by][bx] = total_coeff

    def nc(self, bx: int, by: int) -> int:
        """The nC context for the block at (bx, by)."""
        return nc_context(self.get(bx - 1, by), self.get(bx, by - 1))


#: P macroblock mode code numbers (ue-coded).
P_SKIP, P_16X16, P_16X8, P_8X16, P_8X8, P_I4, P_I16 = range(7)
P_MODE_FOR_SHAPE = {"16x16": P_16X16, "16x8": P_16X8, "8x16": P_8X16, "8x8": P_8X8}
SHAPE_FOR_P_MODE = {code: shape for shape, code in P_MODE_FOR_SHAPE.items()}

#: B macroblock mode code numbers (ue-coded).
B_SKIP, B_BI, B_FWD, B_BWD, B_I4, B_I16 = range(6)

#: I-picture macroblock mode code numbers.
I_4X4, I_16X16 = range(2)


def intra4_mpm(modes: Dict[Tuple[int, int], int], bx: int, by: int) -> int:
    """Most probable Intra 4x4 mode of luma block (bx, by), given the
    mode index of every block coded so far: the smaller of its left and
    top neighbours' modes, or DC where either is missing."""
    left = modes.get((bx - 1, by))
    top = modes.get((bx, by - 1))
    if left is None or top is None:
        return intra.DC_MODE_INDEX
    return min(left, top)
