"""MPEG-4 ASP class encoder.

Implements the Advanced-Simple-Profile toolset of the paper's Xvid
application: quarter-pel motion compensation (``qpel``), the four-motion-
vector 8x8 inter mode, intra AC/DC prediction, H.263-style quantisation,
EPZS motion estimation with median MV prediction, and three-dimensional
(last, run, level) VLC entropy coding — each the reason this codec sits
between MPEG-2 and H.264 in both compression and compute cost.  The
sequence and macroblock loops are the hybrid skeleton of
:mod:`repro.codecs.hybrid`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.codecs.frames import WorkingFrame
from repro.codecs.hybrid import int_mv, reconstruct_inter
from repro.codecs.mpeg4 import tables
from repro.codecs.mpeg4.acdc import AcDcEncoder
from repro.codecs.mpeg4.coefficients import encode_3d, estimate_3d_bits
from repro.codecs.mpeg4.config import Mpeg4Config
from repro.codecs.mpeg4.prediction import predict_mb_4mv
from repro.common.bitstream import BitWriter
from repro.me.types import MotionVector, SearchResult
from repro.transform.zigzag import scan8

#: Extra cost charged to the four-MV mode for its added side information.
FOUR_MV_BIAS_BITS = 10


class Mpeg4Encoder(AcDcEncoder):
    """MPEG-4 ASP class encoder (see module docstring)."""

    codec_name = "mpeg4"
    tables = tables
    config: Mpeg4Config

    def __init__(self, config: Mpeg4Config) -> None:
        super().__init__(config)
        self.unit = 4 if config.qpel else 2

    def _write_tools(self, writer: BitWriter) -> None:
        writer.write_bit(1 if self.config.qpel else 0)
        writer.write_bit(1 if self.config.four_mv else 0)

    def _intra_ac_bits(self, scanned: Sequence[int]) -> int:
        return estimate_3d_bits(scanned, start=1)

    def _write_intra_ac(self, writer: BitWriter, scanned: Sequence[int]) -> None:
        encode_3d(writer, scanned, start=1)

    # ------------------------------------------------------------------
    # inter residual
    # ------------------------------------------------------------------

    def _quantise_inter(self, residual: np.ndarray) -> Optional[np.ndarray]:
        kernels = self.kernels
        levels = kernels.quant_h263(kernels.fdct8(residual), self.config.qscale, intra=False)
        return levels if np.any(levels) else None

    def _dequantise_inter(self, levels: np.ndarray) -> np.ndarray:
        kernels = self.kernels
        return kernels.idct8(kernels.dequant_h263(levels, self.config.qscale, intra=False))

    def _write_block(self, writer: BitWriter, levels: np.ndarray) -> None:
        encode_3d(writer, scan8(levels), start=0)

    # ------------------------------------------------------------------
    # the four-MV P mode
    # ------------------------------------------------------------------

    def _encode_p_inter(self, writer: BitWriter, source: WorkingFrame,
                        recon: WorkingFrame, forward: WorkingFrame, mbx: int,
                        mby: int, pmv: MotionVector, best: SearchResult) -> None:
        # The four-MV mode is defined on the quarter-pel path only.
        if not (self.config.four_mv and self.config.qpel):
            super()._encode_p_inter(writer, source, recon, forward, mbx, mby, pmv, best)
            return
        x, y = mbx * 16, mby * 16
        mvs = []
        cost4 = self.lagrangian * FOUR_MV_BIAS_BITS
        seed = [int_mv(best.mv, self.unit)]
        for block_index in range(4):
            off_x = 8 * (block_index & 1)
            off_y = 8 * (block_index >> 1)
            block = source.y[y + off_y : y + off_y + 8, x + off_x : x + off_x + 8]
            predictor8 = self._grid.predictor(2 * mbx + (block_index & 1),
                                              2 * mby + (block_index >> 1), 1)
            result = self._search(block, forward, x + off_x, y + off_y, 8, predictor8, seed)
            mvs.append(result.mv)
            cost4 += result.cost
        if not cost4 < best.cost:
            super()._encode_p_inter(writer, source, recon, forward, mbx, mby, pmv, best)
            return
        if self._intra_cost(source, mbx, mby) < cost4:
            self._encode_p_intra(writer, source, recon, mbx, mby)
            return

        prediction = predict_mb_4mv(
            self.kernels, forward, mbx, mby, mvs, self.config.search_range
        )
        cbp, blocks = self._quantise_residual(source, prediction, mbx, mby)
        tables.MB_P_TABLE.write(writer, "inter4v")
        for block_index, mv in enumerate(mvs):
            cell_x = 2 * mbx + (block_index & 1)
            cell_y = 2 * mby + (block_index >> 1)
            self._write_mvd(writer, mv, self._grid.predictor(cell_x, cell_y, 1))
            self._grid.set_block(cell_x, cell_y, 1, 1, mv)
        self._write_residual(writer, cbp, blocks)
        reconstruct_inter(self.kernels, recon, prediction, blocks, mbx, mby,
                          self._dequantise_inter)
        self.stats.inter_macroblocks += 1
