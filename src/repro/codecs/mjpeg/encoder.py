"""Motion-JPEG class encoder.

The intra-only extension codec the paper's conclusions plan for (Section
VII): every frame is a JPEG-structured picture — 8x8 DCT, Annex-K
quantisation matrices scaled by a quality factor, per-component DC
differential prediction and (run, size)+amplitude entropy coding.  No
motion compensation: the bitrate/throughput contrast against the hybrid
codecs is the point of including it in the benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.base import EncodedPicture, EncodedVideo, VideoEncoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.hybrid import BLOCK_LAYOUT
from repro.codecs.mjpeg import tables
from repro.codecs.mjpeg.coefficients import encode_ac, encode_dc
from repro.codecs.mjpeg.config import MjpegConfig
from repro.common.bitstream import BitWriter
from repro.common.gop import FrameType
from repro.common.yuv import YuvSequence
from repro.kernels import get_kernels
from repro.transform.zigzag import scan8


class MjpegEncoder(VideoEncoder):
    """Motion-JPEG class encoder (see module docstring)."""

    codec_name = "mjpeg"

    def __init__(self, config: MjpegConfig) -> None:
        super().__init__(config)
        self.config: MjpegConfig = config
        self.kernels = get_kernels(config.backend)
        self.luma_matrix = tables.scaled_matrix(tables.LUMA_MATRIX, config.quality)
        self.chroma_matrix = tables.scaled_matrix(tables.CHROMA_MATRIX, config.quality)

    def encode_sequence(self, video: YuvSequence) -> EncodedVideo:
        self._check_input(video)
        stream = EncodedVideo(
            codec=self.codec_name,
            width=self.config.width,
            height=self.config.height,
            fps=video.fps,
        )
        for display_index, frame in enumerate(video):
            payload = self._encode_frame(WorkingFrame.from_yuv(frame))
            stream.pictures.append(EncodedPicture(payload, display_index, FrameType.I))
            self.stats.frame_bits.append(8 * len(payload))
        return stream

    def _encode_frame(self, source: WorkingFrame) -> bytes:
        kernels = self.kernels
        writer = BitWriter()
        writer.write_bits(self.config.quality, 7)
        dc_pred = dict.fromkeys(("y", "u", "v"), 0)
        for mby in range(self.config.mb_height):
            for mbx in range(self.config.mb_width):
                for plane, size, off_x, off_y in BLOCK_LAYOUT:
                    x = mbx * size + off_x
                    y = mby * size + off_y
                    matrix = self.luma_matrix if plane == "y" else self.chroma_matrix
                    # JPEG level shift: samples are centred before the DCT.
                    block = source.plane(plane)[y : y + 8, x : x + 8] - 128
                    levels = kernels.quant_matrix(kernels.fdct8(block), matrix)
                    dc = int(levels[0, 0])
                    encode_dc(writer, dc - dc_pred[plane])
                    dc_pred[plane] = dc
                    encode_ac(writer, scan8(levels))
                self.stats.intra_macroblocks += 1
        writer.align()
        return writer.to_bytes()
