"""MPEG-4 ASP class decoder: bit-exact inverse of the encoder."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.codecs.frames import WorkingFrame
from repro.codecs.hybrid import reconstruct_inter
from repro.codecs.mpeg4 import tables
from repro.codecs.mpeg4.acdc import AcDcDecoder
from repro.codecs.mpeg4.coefficients import decode_3d
from repro.codecs.mpeg4.prediction import predict_mb_4mv
from repro.common.bitstream import BitReader
from repro.transform.zigzag import unscan8


class Mpeg4Decoder(AcDcDecoder):
    """MPEG-4 ASP class decoder (paper application: Xvid)."""

    codec_name = "mpeg4"
    tables = tables

    def _read_tools(self, reader: BitReader) -> None:
        self.unit = 4 if reader.read_bit() else 2
        reader.read_bit()  # four_mv capability flag (informational)

    def _read_intra_ac(self, reader: BitReader) -> List[int]:
        return decode_3d(reader, 64, start=1)

    def _read_block(self, reader: BitReader) -> np.ndarray:
        return unscan8(decode_3d(reader, 64, start=0))

    def _dequantise_inter(self, levels: np.ndarray) -> np.ndarray:
        kernels = self.kernels
        return kernels.idct8(kernels.dequant_h263(levels, self._qscale, intra=False))

    def _decode_p_inter(self, reader: BitReader, recon: WorkingFrame,
                        forward: WorkingFrame, mbx: int, mby: int, mode: str) -> None:
        if mode != "inter4v":
            super()._decode_p_inter(reader, recon, forward, mbx, mby, mode)
            return
        mvs = []
        for block_index in range(4):
            cell_x = 2 * mbx + (block_index & 1)
            cell_y = 2 * mby + (block_index >> 1)
            mv = self._read_mv(reader, self._grid.predictor(cell_x, cell_y, 1))
            self._grid.set_block(cell_x, cell_y, 1, 1, mv)
            mvs.append(mv)
        blocks = self._read_residual(reader)
        prediction = predict_mb_4mv(self.kernels, forward, mbx, mby, mvs, self._search_range)
        reconstruct_inter(self.kernels, recon, prediction, blocks, mbx, mby,
                          self._dequantise_inter)
