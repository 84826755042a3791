"""MPEG-2 class decoder.

Bit-exact inverse of :mod:`repro.codecs.mpeg2.encoder`: parses the picture
payloads, rebuilds predictions from the decoded motion vectors and adds the
dequantised/inverse-transformed residuals.  Plays the role libmpeg2 plays
in the paper (the high-performance MPEG-2 decode application).
"""

from __future__ import annotations

import numpy as np

from repro.codecs.frames import PLANE_NAMES, WorkingFrame
from repro.codecs.hybrid import BLOCK_LAYOUT, HybridDecoder, intra_block
from repro.codecs.mpeg2 import tables
from repro.codecs.mpeg2.coefficients import decode_run_level
from repro.common.bitstream import BitReader
from repro.common.expgolomb import read_se
from repro.common.gop import FrameType
from repro.kernels.tables import MPEG_INTER_MATRIX, MPEG_INTRA_MATRIX
from repro.transform.zigzag import unscan8


class Mpeg2Decoder(HybridDecoder):
    """MPEG-2 class decoder (see module docstring)."""

    codec_name = "mpeg2"
    tables = tables
    unit = 2

    def _reset_picture_state(self, frame_type: FrameType, mb_width: int, mb_height: int) -> None:
        # DC predictors chain along a row of an I picture only (see the encoder).
        self._dc_chained = frame_type is FrameType.I

    def _decode_intra_mb(self, reader: BitReader, recon: WorkingFrame,
                         mbx: int, mby: int) -> None:
        kernels = self.kernels
        if mbx == 0 or not self._dc_chained:
            self._dc_pred = dict.fromkeys(PLANE_NAMES, tables.DC_PREDICTOR_RESET)
        for plane, size, off_x, off_y in BLOCK_LAYOUT:
            x, y = mbx * size + off_x, mby * size + off_y
            dc = self._dc_pred[plane] + read_se(reader)
            self._dc_pred[plane] = dc
            scanned = decode_run_level(reader, 64, start=1)
            scanned[0] = dc
            levels = unscan8(scanned)
            coeffs = kernels.dequant_mpeg(levels, MPEG_INTRA_MATRIX, self._qscale, intra=True)
            recon.store_block(plane, x, y, intra_block(kernels, coeffs))

    def _read_block(self, reader: BitReader) -> np.ndarray:
        return unscan8(decode_run_level(reader, 64, start=0))

    def _dequantise_inter(self, levels: np.ndarray) -> np.ndarray:
        kernels = self.kernels
        coeffs = kernels.dequant_mpeg(levels, MPEG_INTER_MATRIX, self._qscale, intra=False)
        return kernels.idct8(coeffs)
