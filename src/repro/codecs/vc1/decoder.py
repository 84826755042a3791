"""VC-1 class decoder: bit-exact inverse of the encoder."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.codecs.mpeg4.acdc import AcDcDecoder
from repro.codecs.vc1 import tables
from repro.codecs.vc1.transform import TransformedBlock, inverse_adaptive
from repro.common.bitstream import BitReader
from repro.transform.qp import h264_qp_from_mpeg
from repro.transform.zigzag import ZIGZAG_4X4, ZIGZAG_8X8, raster_block


class Vc1Decoder(AcDcDecoder):
    """VC-1 class decoder."""

    codec_name = "vc1"
    tables = tables
    unit = 4

    def _read_tools(self, reader: BitReader) -> None:
        self._adaptive = bool(reader.read_bit())
        self._qp264 = h264_qp_from_mpeg(self._qscale)

    def _read_intra_ac(self, reader: BitReader) -> List[int]:
        return tables.COEFF_CODE.read_block(reader, ZIGZAG_8X8.raster, start=1)

    def _read_block(self, reader: BitReader) -> TransformedBlock:
        read_block = tables.COEFF_CODE.read_block
        size = reader.read_bit() if self._adaptive else tables.TRANSFORM_8X8
        if size == tables.TRANSFORM_8X8:
            levels8 = raster_block(read_block(reader, ZIGZAG_8X8.raster), 8)
            return TransformedBlock(size, levels8=levels8)
        levels4 = [raster_block(read_block(reader, ZIGZAG_4X4.raster), 4)
                   for _ in tables.SUBBLOCK_OFFSETS]
        return TransformedBlock(size, levels4=levels4)

    def _dequantise_inter(self, block: TransformedBlock) -> np.ndarray:
        return inverse_adaptive(self.kernels, block, self._qscale, self._qp264)
