"""VC-1 class decoder: bit-exact inverse of the encoder."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.codecs.mpeg4.acdc import AcDcDecoder
from repro.codecs.vc1 import tables
from repro.codecs.vc1.coefficients import decode_run_level
from repro.codecs.vc1.transform import TransformedBlock, inverse_adaptive
from repro.common.bitstream import BitReader
from repro.transform.qp import h264_qp_from_mpeg
from repro.transform.zigzag import unscan4, unscan8


class Vc1Decoder(AcDcDecoder):
    """VC-1 class decoder."""

    codec_name = "vc1"
    tables = tables
    unit = 4

    def _read_tools(self, reader: BitReader) -> None:
        self._adaptive = bool(reader.read_bit())
        self._qp264 = h264_qp_from_mpeg(self._qscale)

    def _read_intra_ac(self, reader: BitReader) -> List[int]:
        return decode_run_level(reader, 64, start=1)

    def _read_block(self, reader: BitReader) -> TransformedBlock:
        size = reader.read_bit() if self._adaptive else tables.TRANSFORM_8X8
        if size == tables.TRANSFORM_8X8:
            scanned = decode_run_level(reader, 64)
            return TransformedBlock(size, levels8=unscan8(scanned))
        levels4 = [unscan4(decode_run_level(reader, 16)) for _ in tables.SUBBLOCK_OFFSETS]
        return TransformedBlock(size, levels4=levels4)

    def _dequantise_inter(self, block: TransformedBlock) -> np.ndarray:
        return inverse_adaptive(self.kernels, block, self._qscale, self._qp264)
