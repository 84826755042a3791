"""VC-1 class encoder.

The second future-work codec of the paper's Section VII.  Toolset:
I/P/B pictures in the shared GOP, quarter-pel bilinear motion compensation
with median MV prediction, MPEG-4-style intra DC/AC prediction, and the
VC-1 signature **adaptive transform size** — each coded inter residual
block is transformed as one 8x8 DCT or four 4x4 integer transforms,
whichever costs fewer bits (see :mod:`repro.codecs.vc1.transform`).  The
sequence and macroblock loops are the hybrid skeleton of
:mod:`repro.codecs.hybrid`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.codecs.huffman import encode_run_level, run_level_bits
from repro.codecs.mpeg4.acdc import AcDcEncoder
from repro.codecs.vc1 import tables
from repro.codecs.vc1.config import Vc1Config
from repro.codecs.vc1.transform import TransformedBlock, forward_adaptive, inverse_adaptive
from repro.common.bitstream import BitWriter
from repro.transform.zigzag import scan4, scan8


class Vc1Encoder(AcDcEncoder):
    """VC-1 class encoder (see module docstring)."""

    codec_name = "vc1"
    tables = tables
    unit = 4
    config: Vc1Config

    def _write_tools(self, writer: BitWriter) -> None:
        writer.write_bit(1 if self.config.adaptive_transform else 0)

    def _intra_ac_bits(self, scanned: Sequence[int]) -> int:
        return run_level_bits(tables.COEFF_CODE, scanned, start=1)

    def _write_intra_ac(self, writer: BitWriter, scanned: Sequence[int]) -> None:
        encode_run_level(writer, tables.COEFF_CODE, scanned, start=1)

    # ------------------------------------------------------------------
    # inter residual: the adaptive transform size
    # ------------------------------------------------------------------

    def _quantise_inter(self, residual: np.ndarray) -> Optional[TransformedBlock]:
        kernels = self.kernels
        config = self.config
        if config.adaptive_transform:
            block = forward_adaptive(kernels, residual, config.qscale, self.qp264)
        else:
            levels = kernels.quant_h263(kernels.fdct8(residual), config.qscale, intra=False)
            block = TransformedBlock(tables.TRANSFORM_8X8, levels8=levels)
        return block if block.any_nonzero else None

    def _dequantise_inter(self, block: TransformedBlock) -> np.ndarray:
        return inverse_adaptive(self.kernels, block, self.config.qscale, self.qp264)

    def _write_block(self, writer: BitWriter, block: TransformedBlock) -> None:
        if self.config.adaptive_transform:
            writer.write_bit(block.size)
        if block.size == tables.TRANSFORM_8X8:
            encode_run_level(writer, tables.COEFF_CODE, scan8(block.levels8))
        else:
            for levels in block.levels4:
                encode_run_level(writer, tables.COEFF_CODE, scan4(levels))
