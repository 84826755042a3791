"""What the H.264 encoder and decoder share: the macroblock layer.

:class:`MacroblockLayer` holds one picture's reconstruction state and
rebuilds each macroblock from its prediction and quantised levels.  The
encoder reconstructs through it exactly as the decoder does, so its
reconstruction equals the decoder's output by construction.  Both keep
their own half of the syntax: the encoder decides modes and quantises,
the decoder parses and checks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codecs.frames import WorkingFrame
from repro.codecs.h264 import intra
from repro.codecs.h264.cavlc import nc_context
from repro.codecs.h264.deblock import DeblockFilter, DeblockMeta
from repro.codecs.h264.motion import MvGrid4
from repro.me.types import MotionVector

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


#: One partition of a macroblock prediction: (reference, (off_x, off_y, width, height), mv).
PartitionAssignment = Tuple[WorkingFrame, Tuple[int, int, int, int], MotionVector]


class MacroblockLayer:
    """One picture's macroblock reconstruction, shared by encoder and decoder.

    Holds the reconstructed frame, the deblocking grids (``meta``), the L0
    and L1 motion-vector grids, the CAVLC TotalCoeff grids of luma and of
    each chroma plane, and the Intra 4x4 mode map.  A block without
    nonzero levels stores its prediction; the coded blocks of a macroblock
    plane are rebuilt with one stacked dequantise, one stacked inverse
    transform and one ``add_clip``.
    """

    def __init__(self, kernels, width: int, height: int, qp: int,
                 search_range: int) -> None:
        self.kernels = kernels
        self.qp = qp
        self.search_range = search_range
        mb_width, mb_height = width // 16, height // 16
        self.recon = WorkingFrame.blank(width, height)
        self.meta = DeblockMeta(mb_width, mb_height)
        self.grid_l0 = MvGrid4(mb_width, mb_height)
        self.grid_l1 = MvGrid4(mb_width, mb_height)
        self.tc_luma = TcGrid(4 * mb_width, 4 * mb_height)
        self.tc_chroma = {
            "u": TcGrid(2 * mb_width, 2 * mb_height),
            "v": TcGrid(2 * mb_width, 2 * mb_height),
        }
        self.intra4_modes: Dict[Tuple[int, int], int] = {}

    def prediction(self, mbx: int, mby: int,
                   assignments: Sequence[PartitionAssignment]) -> Dict[str, np.ndarray]:
        """Assemble a macroblock prediction, each partition from its own reference."""
        kernels = self.kernels
        search_range = self.search_range
        pred_y = np.zeros((16, 16), dtype=np.int64)
        pred_c = {
            "u": np.zeros((8, 8), dtype=np.int64),
            "v": np.zeros((8, 8), dtype=np.int64),
        }
        for reference, (off_x, off_y, width, height), mv in assignments:
            luma = reference.padded("y", search_range)
            px, py = luma.offset(16 * mbx + off_x, 16 * mby + off_y)
            pred_y[off_y : off_y + height, off_x : off_x + width] = kernels.mc_qpel_h264(
                luma.plane, px, py, width, height, mv.x, mv.y
            )
            for plane in ("u", "v"):
                padded = reference.padded(plane, search_range)
                cx, cy = padded.offset(8 * mbx + off_x // 2, 8 * mby + off_y // 2)
                pred_c[plane][
                    off_y // 2 : (off_y + height) // 2,
                    off_x // 2 : (off_x + width) // 2,
                ] = kernels.mc_chroma_bilinear8(
                    padded.plane, cx, cy, width // 2, height // 2, mv.x, mv.y
                )
        return {"y": pred_y, "u": pred_c["u"], "v": pred_c["v"]}

    def average(self, first: Dict[str, np.ndarray],
                second: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """The bi-predictive average of two macroblock predictions."""
        return {name: self.kernels.average(first[name], second[name])
                for name in ("y", "u", "v")}

    def skip(self, mbx: int, mby: int, mv: MotionVector,
             prediction: Dict[str, np.ndarray]) -> None:
        """Reconstruct a skipped macroblock: one 16x16 partition on L0
        reference 0 with vector ``mv``, no coefficients, its prediction as is."""
        bx, by = 4 * mbx, 4 * mby
        self.grid_l0.set_rect(bx, by, 4, 4, mv, 0)
        self.meta.mark_inter(bx, by, 4, 4, mv, 0)
        for off_x, off_y in LUMA_OFFSETS:
            self.tc_luma.set(bx + off_x // 4, by + off_y // 4, 0)
        self.clear_chroma_tc(mbx, mby)
        self.recon.store_block("y", 16 * mbx, 16 * mby, prediction["y"])
        for plane in ("u", "v"):
            self.recon.store_block(plane, 8 * mbx, 8 * mby, prediction[plane])

    def reconstruct_luma4(self, x: int, y: int, prediction: np.ndarray,
                          levels: Optional[np.ndarray]) -> None:
        """Rebuild the Intra 4x4 block at (x, y); ``levels`` is None when it has none."""
        pixels = prediction
        if levels is not None:
            kernels = self.kernels
            rebuilt = kernels.inv_transform4(kernels.dequant_h264_4x4(levels, self.qp))
            pixels = kernels.add_clip(prediction, rebuilt)
        self.recon.store_block("y", x, y, pixels)

    def reconstruct_luma(self, mbx: int, mby: int, prediction: np.ndarray,
                         coded: Dict[int, np.ndarray]) -> None:
        """Rebuild inter luma from ``coded``, block index -> nonzero levels.

        The coded blocks' cells are marked nonzero for the deblocking
        filter; ``mark_inter`` has cleared the macroblock's cells already.
        """
        kernels = self.kernels
        x0, y0 = 16 * mbx, 16 * mby
        pixels = prediction
        if coded:
            residual = np.zeros((16, 4, 4), dtype=np.int64)
            residual[list(coded)] = kernels.inv_transform4(
                kernels.dequant_h264_4x4(np.stack(list(coded.values())), self.qp)
            )
            pixels = kernels.add_clip(prediction, blocks_to_square(residual))
            for block_index in coded:
                off_x, off_y = LUMA_OFFSETS[block_index]
                self.meta.set_nonzero((x0 + off_x) // 4, (y0 + off_y) // 4, True)
        self.recon.store_block("y", x0, y0, pixels)

    def reconstruct_i16(self, mbx: int, mby: int, prediction: np.ndarray,
                        dc_levels: np.ndarray,
                        ac_levels: Optional[List[np.ndarray]]) -> None:
        """Rebuild Intra16x16 luma from its DC levels and, if it has AC, its 16 AC blocks."""
        kernels = self.kernels
        if ac_levels is not None:
            coeffs = kernels.dequant_h264_4x4(np.stack(ac_levels), self.qp)
        else:
            coeffs = np.zeros((16, 4, 4), dtype=np.int64)
        coeffs[:, 0, 0] = kernels.dequant_h264_dc4(dc_levels, self.qp).ravel()
        residual = blocks_to_square(kernels.inv_transform4(coeffs))
        self.recon.store_block("y", 16 * mbx, 16 * mby, kernels.add_clip(prediction, residual))

    def reconstruct_chroma(self, mbx: int, mby: int, prediction: Dict[str, np.ndarray],
                           cbp: int, dc_levels: Dict[str, np.ndarray],
                           ac_levels: Dict[str, List[np.ndarray]]) -> None:
        """Rebuild both chroma planes; ``cbp`` 0 stores the prediction as is.

        ``dc_levels`` holds each plane's 2x2 DC levels when ``cbp`` >= 1,
        ``ac_levels`` its four AC blocks when ``cbp`` is 2.
        """
        kernels = self.kernels
        for plane in ("u", "v"):
            pixels = prediction[plane]
            if cbp:
                if cbp == 2:
                    coeffs = kernels.dequant_h264_4x4(np.stack(ac_levels[plane]), self.qp)
                else:
                    coeffs = np.zeros((4, 4, 4), dtype=np.int64)
                coeffs[:, 0, 0] = kernels.dequant_h264_dc2(dc_levels[plane], self.qp).ravel()
                residual = blocks_to_square(kernels.inv_transform4(coeffs))
                pixels = kernels.add_clip(prediction[plane], residual)
            self.recon.store_block(plane, 8 * mbx, 8 * mby, pixels)

    def clear_chroma_tc(self, mbx: int, mby: int) -> None:
        """Set the TotalCoeff of the macroblock's eight chroma blocks to 0."""
        for plane in ("u", "v"):
            grid = self.tc_chroma[plane]
            for off_x, off_y in CHROMA_OFFSETS:
                grid.set((8 * mbx + off_x) // 4, (8 * mby + off_y) // 4, 0)

    def deblock(self) -> None:
        """Apply the in-loop deblocking filter to the reconstructed picture."""
        DeblockFilter(self.kernels, self.qp).apply(self.recon, self.meta)
