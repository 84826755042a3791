"""Adaptive transform size: the VC-1 class codec's signature tool.

A coded inter residual block is transformed either as one 8x8 DCT or as
four 4x4 integer transforms; the encoder picks per block by estimated bit
cost and signals the choice with one bit.  The 8x8 path uses the uniform
H.263-style quantiser at the MPEG quantiser scale; the 4x4 path uses the
H.264 quantiser at the Equation-1-equivalent QP, which places both paths
at the same effective step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.codecs.huffman import run_level_bits
from repro.codecs.vc1 import tables
from repro.transform.zigzag import scan4, scan8


@dataclass
class TransformedBlock:
    """One coded 8x8 residual block under either transform size."""

    size: int  # tables.TRANSFORM_8X8 or tables.TRANSFORM_4X4
    levels8: Optional[np.ndarray] = None          # 8x8 levels
    levels4: Optional[List[np.ndarray]] = None    # four 4x4 level blocks

    @property
    def any_nonzero(self) -> bool:
        if self.size == tables.TRANSFORM_8X8:
            return bool(np.any(self.levels8))
        return any(np.any(levels) for levels in self.levels4)


def forward_adaptive(kernels, residual: np.ndarray, qscale: int,
                     qp264: int) -> TransformedBlock:
    """Quantise ``residual`` under both transform sizes; keep the cheaper.

    Cost = estimated entropy bits (plus the 1-bit signal, identical for
    both, hence omitted).
    """
    levels8 = kernels.quant_h263(kernels.fdct8(residual), qscale, intra=False)
    bits8 = run_level_bits(tables.COEFF_CODE, scan8(levels8))

    levels4 = []
    bits4 = 0
    for off_x, off_y in tables.SUBBLOCK_OFFSETS:
        sub = residual[off_y : off_y + 4, off_x : off_x + 4]
        levels = kernels.quant_h264_4x4(kernels.fwd_transform4(sub), qp264, intra=False)
        levels4.append(levels)
        bits4 += run_level_bits(tables.COEFF_CODE, scan4(levels))

    if bits4 < bits8:
        return TransformedBlock(tables.TRANSFORM_4X4, levels4=levels4)
    return TransformedBlock(tables.TRANSFORM_8X8, levels8=levels8)


def inverse_adaptive(kernels, block: TransformedBlock, qscale: int,
                     qp264: int) -> np.ndarray:
    """Rebuild the 8x8 residual of a :class:`TransformedBlock`."""
    if block.size == tables.TRANSFORM_8X8:
        return kernels.idct8(kernels.dequant_h263(block.levels8, qscale, intra=False))
    residual = np.zeros((8, 8), dtype=np.int64)
    for levels, (off_x, off_y) in zip(block.levels4, tables.SUBBLOCK_OFFSETS):
        rebuilt = kernels.inv_transform4(kernels.dequant_h264_4x4(levels, qp264))
        residual[off_y : off_y + 4, off_x : off_x + 4] = rebuilt
    return residual
