"""MPEG-2 class decoder.

Bit-exact inverse of :mod:`repro.codecs.mpeg2.encoder`: parses the picture
payloads, rebuilds predictions from the decoded motion vectors and adds the
dequantised/inverse-transformed residuals.  Plays the role libmpeg2 plays
in the paper (the high-performance MPEG-2 decode application).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.codecs.base import EncodedPicture, EncodedVideo, VideoDecoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.mpeg2 import tables
from repro.codecs.mpeg2.coefficients import decode_run_level
from repro.codecs.mpeg2.prediction import average_prediction, predict_mb
from repro.common.bitstream import BitReader
from repro.common.expgolomb import read_se
from repro.common.gop import FrameType
from repro.errors import CodecError
from repro.kernels import get_kernels
from repro.kernels.tables import MPEG_INTER_MATRIX, MPEG_INTRA_MATRIX
from repro.me.types import MotionVector, ZERO_MV
from repro.robustness.guard import check_header, read_frame_type
from repro.transform.zigzag import unscan8


class Mpeg2Decoder(VideoDecoder):
    """MPEG-2 class decoder (see module docstring)."""

    codec_name = "mpeg2"

    def __init__(self, backend: str = "simd") -> None:
        self.kernels = get_kernels(backend)

    def decode_picture(
        self,
        stream: EncodedVideo,
        picture: EncodedPicture,
        references: Dict[int, WorkingFrame],
    ) -> WorkingFrame:
        reader = self._open_reader(picture.payload)
        frame_type = read_frame_type(reader, expected=picture.frame_type)
        qscale = check_header("qscale", reader.read_bits(5), 1, 31)
        search_range = check_header("search_range", reader.read_bits(8), 1, 255)

        if frame_type is not FrameType.I and not references:
            raise CodecError("inter picture without reference frames")
        ordered = sorted(references)
        forward = references[ordered[-1]] if frame_type is FrameType.P else None
        backward: Optional[WorkingFrame] = None
        if frame_type is FrameType.B:
            if len(ordered) < 2:
                raise CodecError("B picture requires two reference frames")
            forward = references[ordered[-2]]
            backward = references[ordered[-1]]

        mb_width = stream.width // 16
        mb_height = stream.height // 16
        recon = WorkingFrame.blank(stream.width, stream.height)

        self._qscale = qscale
        self._search_range = search_range
        for mby in range(mb_height):
            self._pmv_fwd = ZERO_MV
            self._pmv_bwd = ZERO_MV
            self._dc_pred = dict.fromkeys(("y", "u", "v"), tables.DC_PREDICTOR_RESET)
            for mbx in range(mb_width):
                if frame_type is FrameType.I:
                    self._decode_intra_mb(reader, recon, mbx, mby)
                elif frame_type is FrameType.P:
                    self._decode_p_mb(reader, recon, forward, mbx, mby)
                else:
                    self._decode_b_mb(reader, recon, forward, backward, mbx, mby)
        return recon

    def _reset_dc_pred(self) -> None:
        for name in ("y", "u", "v"):
            self._dc_pred[name] = tables.DC_PREDICTOR_RESET

    # ------------------------------------------------------------------

    def _decode_intra_mb(self, reader: BitReader, recon: WorkingFrame,
                         mbx: int, mby: int) -> None:
        kernels = self.kernels
        for plane, off_x, off_y in tables.BLOCK_LAYOUT:
            base = 16 if plane == "y" else 8
            x = mbx * base + off_x
            y = mby * base + off_y
            dc = self._dc_pred[plane] + read_se(reader)
            self._dc_pred[plane] = dc
            scanned = decode_run_level(reader, 64, start=1)
            scanned[0] = dc
            levels = unscan8(scanned)
            coeffs = kernels.dequant_mpeg(levels, MPEG_INTRA_MATRIX, self._qscale, intra=True)
            pixels = kernels.add_clip(
                np.zeros((8, 8), dtype=np.int64), kernels.idct8(coeffs)
            )
            recon.store_block(plane, x, y, pixels)

    def _read_residual(self, reader: BitReader) -> List[Optional[np.ndarray]]:
        cbp = tables.CBP_TABLE.read(reader)
        all_levels: List[Optional[np.ndarray]] = []
        for block_index in range(6):
            if cbp & tables.cbp_bit(block_index):
                scanned = decode_run_level(reader, 64, start=0)
                all_levels.append(unscan8(scanned))
            else:
                all_levels.append(None)
        return all_levels

    def _reconstruct_inter(
        self,
        recon: WorkingFrame,
        prediction: Dict[str, np.ndarray],
        all_levels: List[Optional[np.ndarray]],
        mbx: int,
        mby: int,
    ) -> None:
        kernels = self.kernels
        for block_index, (plane, off_x, off_y) in enumerate(tables.BLOCK_LAYOUT):
            if plane == "y":
                x, y = mbx * 16 + off_x, mby * 16 + off_y
                pred_block = prediction["y"][off_y : off_y + 8, off_x : off_x + 8]
            else:
                x, y = mbx * 8, mby * 8
                pred_block = prediction[plane]
            levels = all_levels[block_index]
            if levels is None:
                pixels = pred_block
            else:
                coeffs = kernels.dequant_mpeg(
                    levels, MPEG_INTER_MATRIX, self._qscale, intra=False
                )
                pixels = kernels.add_clip(pred_block, kernels.idct8(coeffs))
            recon.store_block(plane, x, y, pixels)

    def _predict(self, reference: WorkingFrame, mbx: int, mby: int,
                 mv: MotionVector) -> Dict[str, np.ndarray]:
        return predict_mb(self.kernels, reference, mbx, mby, mv, self._search_range)

    # ------------------------------------------------------------------

    def _decode_p_mb(self, reader: BitReader, recon: WorkingFrame,
                     forward: WorkingFrame, mbx: int, mby: int) -> None:
        mode = tables.MB_P_TABLE.read(reader)
        if mode == "intra":
            self._reset_dc_pred()
            self._decode_intra_mb(reader, recon, mbx, mby)
            self._pmv_fwd = ZERO_MV
            return
        if mode == "skip":
            self._pmv_fwd = ZERO_MV
            prediction = self._predict(forward, mbx, mby, ZERO_MV)
            self._reconstruct_inter(recon, prediction, [None] * 6, mbx, mby)
            self._reset_dc_pred()
            return
        mv = MotionVector(
            self._pmv_fwd.x + read_se(reader),
            self._pmv_fwd.y + read_se(reader),
        )
        self._pmv_fwd = mv
        all_levels = self._read_residual(reader)
        prediction = self._predict(forward, mbx, mby, mv)
        self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)
        self._reset_dc_pred()

    def _decode_b_mb(self, reader: BitReader, recon: WorkingFrame,
                     forward: WorkingFrame, backward: WorkingFrame,
                     mbx: int, mby: int) -> None:
        mode = tables.MB_B_TABLE.read(reader)
        if mode == "intra":
            self._reset_dc_pred()
            self._decode_intra_mb(reader, recon, mbx, mby)
            self._pmv_fwd = ZERO_MV
            self._pmv_bwd = ZERO_MV
            return
        if mode == "skip":
            prediction = self._predict(forward, mbx, mby, self._pmv_fwd)
            self._reconstruct_inter(recon, prediction, [None] * 6, mbx, mby)
            self._reset_dc_pred()
            return
        mv_fwd = mv_bwd = None
        if mode in ("fwd", "bi"):
            mv_fwd = MotionVector(
                self._pmv_fwd.x + read_se(reader),
                self._pmv_fwd.y + read_se(reader),
            )
            self._pmv_fwd = mv_fwd
        if mode in ("bwd", "bi"):
            mv_bwd = MotionVector(
                self._pmv_bwd.x + read_se(reader),
                self._pmv_bwd.y + read_se(reader),
            )
            self._pmv_bwd = mv_bwd
        all_levels = self._read_residual(reader)
        if mode == "fwd":
            prediction = self._predict(forward, mbx, mby, mv_fwd)
        elif mode == "bwd":
            prediction = self._predict(backward, mbx, mby, mv_bwd)
        else:
            prediction = average_prediction(
                self.kernels,
                self._predict(forward, mbx, mby, mv_fwd),
                self._predict(backward, mbx, mby, mv_bwd),
            )
        self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)
        self._reset_dc_pred()
