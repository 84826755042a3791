"""Motion-JPEG class decoder: bit-exact inverse of the encoder."""

from __future__ import annotations

import numpy as np

from repro.codecs.base import EncodedPicture, EncodedVideo, VideoDecoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.hybrid import BLOCK_LAYOUT
from repro.codecs.mjpeg import tables
from repro.codecs.mjpeg.coefficients import decode_ac, decode_dc
from repro.kernels import get_kernels
from repro.robustness.guard import check_header
from repro.transform.zigzag import unscan8


class MjpegDecoder(VideoDecoder):
    """Motion-JPEG class decoder."""

    codec_name = "mjpeg"

    def __init__(self, backend: str = "simd") -> None:
        self.kernels = get_kernels(backend)

    def decode_picture(self, stream: EncodedVideo, picture: EncodedPicture,
                       references) -> WorkingFrame:
        """Intra-only: every picture decodes independently of references."""
        return self._decode_frame(stream, picture.payload)

    def _decode_frame(self, stream: EncodedVideo, payload: bytes) -> WorkingFrame:
        kernels = self.kernels
        reader = self._open_reader(payload)
        quality = check_header("quality", reader.read_bits(7), 1, 100)
        luma_matrix = tables.scaled_matrix(tables.LUMA_MATRIX, quality)
        chroma_matrix = tables.scaled_matrix(tables.CHROMA_MATRIX, quality)
        recon = WorkingFrame.blank(stream.width, stream.height)
        level_shift = np.full((8, 8), 128, dtype=np.int64)
        dc_pred = dict.fromkeys(("y", "u", "v"), 0)
        for mby in range(stream.height // 16):
            for mbx in range(stream.width // 16):
                for plane, size, off_x, off_y in BLOCK_LAYOUT:
                    x = mbx * size + off_x
                    y = mby * size + off_y
                    matrix = luma_matrix if plane == "y" else chroma_matrix
                    dc = dc_pred[plane] + decode_dc(reader)
                    dc_pred[plane] = dc
                    scanned = decode_ac(reader)
                    scanned[0] = dc
                    coeffs = kernels.dequant_matrix(unscan8(scanned), matrix)
                    pixels = kernels.add_clip(level_shift, kernels.idct8(coeffs))
                    recon.store_block(plane, x, y, pixels)
        return recon
