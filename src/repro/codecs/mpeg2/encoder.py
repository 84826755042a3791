"""MPEG-2 class encoder.

Implements the MPEG-2 Main Profile toolset the paper's FFmpeg encoder
exercises: I/P/B pictures in the fixed I-P-B-B GOP, 8x8 DCT with the
default intra/inter quantiser matrices, 16x16 motion compensation with
half-pel bilinear interpolation, EPZS motion estimation, differential
intra-DC prediction and run/level VLC entropy coding.  The sequence and
macroblock loops are the hybrid skeleton of :mod:`repro.codecs.hybrid`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.codecs.frames import PLANE_NAMES, WorkingFrame
from repro.codecs.hybrid import BLOCK_LAYOUT, HybridEncoder, int_mv, intra_block
from repro.codecs.mpeg2 import tables
from repro.codecs.mpeg2.coefficients import encode_run_level
from repro.common.bitstream import BitWriter
from repro.common.expgolomb import write_se
from repro.common.gop import FrameType
from repro.kernels.tables import MPEG_INTER_MATRIX, MPEG_INTRA_MATRIX
from repro.me.types import MotionVector
from repro.transform.zigzag import scan8


class Mpeg2Encoder(HybridEncoder):
    """MPEG-2 class encoder (see module docstring)."""

    codec_name = "mpeg2"
    tables = tables
    unit = 2

    def _reset_picture_state(self, frame_type: FrameType, mb_width: int, mb_height: int) -> None:
        # DC predictors chain from one intra macroblock to the next along a
        # row of an I picture; every other intra macroblock starts afresh.
        self._dc_chained = frame_type is FrameType.I
        #: Whole-pel vectors coded so far: the EPZS spatial candidates.
        self._mv_field: List[List[Optional[MotionVector]]] = [
            [None] * mb_width for _ in range(mb_height)
        ]

    # ------------------------------------------------------------------
    # intra macroblocks
    # ------------------------------------------------------------------

    def _encode_intra_mb(self, writer: BitWriter, source: WorkingFrame,
                         recon: Optional[WorkingFrame], mbx: int, mby: int) -> None:
        kernels = self.kernels
        qscale = self.config.qscale
        if mbx == 0 or not self._dc_chained:
            self._dc_pred = dict.fromkeys(PLANE_NAMES, tables.DC_PREDICTOR_RESET)
        for plane, size, off_x, off_y in BLOCK_LAYOUT:
            x, y = mbx * size + off_x, mby * size + off_y
            block = source.plane(plane)[y : y + 8, x : x + 8]
            coeffs = kernels.fdct8(block)
            levels = kernels.quant_mpeg(coeffs, MPEG_INTRA_MATRIX, qscale, intra=True)
            dc = int(levels[0, 0])
            write_se(writer, dc - self._dc_pred[plane])
            self._dc_pred[plane] = dc
            encode_run_level(writer, scan8(levels), start=1)
            if recon is not None:
                rebuilt = kernels.dequant_mpeg(levels, MPEG_INTRA_MATRIX, qscale, intra=True)
                recon.store_block(plane, x, y, intra_block(kernels, rebuilt))
        self.stats.intra_macroblocks += 1

    # ------------------------------------------------------------------
    # motion vector field (EPZS candidates)
    # ------------------------------------------------------------------

    def _candidates(self, mbx: int, mby: int) -> List[MotionVector]:
        field = self._mv_field
        predictors = []
        if mbx > 0 and field[mby][mbx - 1] is not None:
            predictors.append(field[mby][mbx - 1])
        if mby > 0:
            if field[mby - 1][mbx] is not None:
                predictors.append(field[mby - 1][mbx])
            if mbx + 1 < self.config.mb_width and field[mby - 1][mbx + 1] is not None:
                predictors.append(field[mby - 1][mbx + 1])
        return predictors

    def _record_mv(self, mbx: int, mby: int, mv: MotionVector) -> None:
        self._mv_field[mby][mbx] = int_mv(mv, self.unit)

    # ------------------------------------------------------------------
    # inter residual
    # ------------------------------------------------------------------

    def _quantise_inter(self, residual: np.ndarray) -> Optional[np.ndarray]:
        kernels = self.kernels
        coeffs = kernels.fdct8(residual)
        levels = kernels.quant_mpeg(coeffs, MPEG_INTER_MATRIX, self.config.qscale, intra=False)
        return levels if np.any(levels) else None

    def _dequantise_inter(self, levels: np.ndarray) -> np.ndarray:
        kernels = self.kernels
        coeffs = kernels.dequant_mpeg(levels, MPEG_INTER_MATRIX, self.config.qscale, intra=False)
        return kernels.idct8(coeffs)

    def _write_block(self, writer: BitWriter, levels: np.ndarray) -> None:
        encode_run_level(writer, scan8(levels), start=0)
