"""MPEG-4 ASP class decoder: bit-exact inverse of the encoder."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.codecs.base import EncodedPicture, EncodedVideo, VideoDecoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.mpeg4 import tables
from repro.codecs.mpeg4.acdc import AcDcStore, apply_ac_prediction, predict
from repro.codecs.mpeg4.coefficients import decode_3d
from repro.codecs.mpeg4.motion import MvGrid
from repro.codecs.mpeg4.prediction import (
    average_prediction,
    predict_mb_4mv,
    predict_mb_qpel,
)
from repro.codecs.mpeg2.prediction import predict_mb as predict_mb_halfpel
from repro.common.bitstream import BitReader
from repro.common.expgolomb import read_se
from repro.common.gop import FrameType
from repro.errors import CodecError
from repro.kernels import get_kernels
from repro.me.types import MotionVector, ZERO_MV
from repro.robustness.guard import check_header, read_frame_type
from repro.transform.zigzag import unscan8


class Mpeg4Decoder(VideoDecoder):
    """MPEG-4 ASP class decoder (paper application: Xvid)."""

    codec_name = "mpeg4"

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
        self._qscale = check_header("qscale", reader.read_bits(5), 1, 31)
        self._search_range = check_header(
            "search_range", reader.read_bits(8), 1, 255
        )
        self._qpel = bool(reader.read_bit())
        reader.read_bit()  # four_mv capability flag (informational)

        ordered = sorted(references)
        forward = backward = None
        if frame_type is FrameType.P:
            if not ordered:
                raise CodecError("P picture without a reference")
            forward = references[ordered[-1]]
        elif frame_type is FrameType.B:
            if len(ordered) < 2:
                raise CodecError("B picture requires two reference frames")
            forward = references[ordered[-2]]
            backward = references[ordered[-1]]

        mb_width = stream.width // 16
        mb_height = stream.height // 16
        recon = WorkingFrame.blank(stream.width, stream.height)
        self._grid = MvGrid(mb_width, mb_height)
        self._acdc = {name: AcDcStore() for name in ("y", "u", "v")}

        for mby in range(mb_height):
            self._pmv_fwd = ZERO_MV
            self._pmv_bwd = ZERO_MV
            for mbx in range(mb_width):
                if frame_type is FrameType.I:
                    self._decode_intra_mb(reader, recon, mbx, mby)
                elif frame_type is FrameType.P:
                    self._decode_p_mb(reader, recon, forward, mbx, mby)
                else:
                    self._decode_b_mb(reader, recon, forward, backward, mbx, mby)
        return recon

    # ------------------------------------------------------------------

    def _block_grid(self, plane: str, mbx: int, mby: int, block_index: int):
        if plane == "y":
            return 2 * mbx + (block_index & 1), 2 * mby + (block_index >> 1)
        return mbx, mby

    def _decode_intra_mb(self, reader: BitReader, recon: WorkingFrame,
                         mbx: int, mby: int) -> None:
        kernels = self.kernels
        qscale = self._qscale
        use_prediction = bool(reader.read_bit())
        cbp = tables.CBP_TABLE.read(reader)
        for block_index, (plane, off_x, off_y) in enumerate(tables.BLOCK_LAYOUT):
            base = 16 if plane == "y" else 8
            x = mbx * base + off_x
            y = mby * base + off_y
            bx, by = self._block_grid(plane, mbx, mby, block_index)
            direction, pred_dc, pred_ac = predict(self._acdc[plane], bx, by)
            dc = pred_dc + read_se(reader)
            if cbp & tables.cbp_bit(block_index):
                scanned = decode_3d(reader, 64, start=1)
            else:
                scanned = [0] * 64
            levels = unscan8(scanned)
            if use_prediction:
                levels = apply_ac_prediction(levels, direction, pred_ac, +1)
            levels[0, 0] = dc
            self._acdc[plane].put(bx, by, levels)
            coeffs = kernels.dequant_h263(levels, qscale, intra=True)
            pixels = kernels.add_clip(
                np.zeros((8, 8), dtype=np.int64), kernels.idct8(coeffs)
            )
            recon.store_block(plane, x, y, pixels)

    # ------------------------------------------------------------------

    def _read_residual(self, reader: BitReader) -> List[Optional[np.ndarray]]:
        cbp = tables.CBP_TABLE.read(reader)
        all_levels: List[Optional[np.ndarray]] = []
        for block_index in range(6):
            if cbp & tables.cbp_bit(block_index):
                scanned = decode_3d(reader, 64, start=0)
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
                coeffs = kernels.dequant_h263(levels, self._qscale, intra=False)
                pixels = kernels.add_clip(pred_block, kernels.idct8(coeffs))
            recon.store_block(plane, x, y, pixels)

    def _predict_inter(self, reference: WorkingFrame, mbx: int, mby: int,
                       mv: MotionVector) -> Dict[str, np.ndarray]:
        if self._qpel:
            return predict_mb_qpel(
                self.kernels, reference, mbx, mby, mv, self._search_range
            )
        return predict_mb_halfpel(
            self.kernels, reference, mbx, mby, mv, self._search_range
        )

    # ------------------------------------------------------------------

    def _decode_p_mb(self, reader: BitReader, recon: WorkingFrame,
                     forward: WorkingFrame, mbx: int, mby: int) -> None:
        mode = tables.MB_P_TABLE.read(reader)
        bx, by = 2 * mbx, 2 * mby
        if mode == "intra":
            self._decode_intra_mb(reader, recon, mbx, mby)
            self._grid.set_block(bx, by, 2, 2, ZERO_MV)
            return
        if mode == "skip":
            self._grid.set_block(bx, by, 2, 2, ZERO_MV)
            prediction = self._predict_inter(forward, mbx, mby, ZERO_MV)
            self._reconstruct_inter(recon, prediction, [None] * 6, mbx, mby)
            return
        if mode == "inter4v":
            mvs = []
            for block_index in range(4):
                cell_x = bx + (block_index & 1)
                cell_y = by + (block_index >> 1)
                predictor = self._grid.predictor(cell_x, cell_y, 1)
                mv = MotionVector(
                    predictor.x + read_se(reader), predictor.y + read_se(reader)
                )
                self._grid.set_block(cell_x, cell_y, 1, 1, mv)
                mvs.append(mv)
            all_levels = self._read_residual(reader)
            prediction = predict_mb_4mv(
                self.kernels, forward, mbx, mby, mvs, self._search_range
            )
            self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)
            return
        predictor = self._grid.predictor(bx, by, 2)
        mv = MotionVector(predictor.x + read_se(reader), predictor.y + read_se(reader))
        self._grid.set_block(bx, by, 2, 2, mv)
        all_levels = self._read_residual(reader)
        prediction = self._predict_inter(forward, mbx, mby, mv)
        self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)

    def _decode_b_mb(self, reader: BitReader, recon: WorkingFrame,
                     forward: WorkingFrame, backward: WorkingFrame,
                     mbx: int, mby: int) -> None:
        mode = tables.MB_B_TABLE.read(reader)
        if mode == "intra":
            self._decode_intra_mb(reader, recon, mbx, mby)
            self._pmv_fwd = ZERO_MV
            self._pmv_bwd = ZERO_MV
            return
        if mode == "skip":
            prediction = self._predict_inter(forward, mbx, mby, self._pmv_fwd)
            self._reconstruct_inter(recon, prediction, [None] * 6, mbx, mby)
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
            prediction = self._predict_inter(forward, mbx, mby, mv_fwd)
        elif mode == "bwd":
            prediction = self._predict_inter(backward, mbx, mby, mv_bwd)
        else:
            prediction = average_prediction(
                self.kernels,
                self._predict_inter(forward, mbx, mby, mv_fwd),
                self._predict_inter(backward, mbx, mby, mv_bwd),
            )
        self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)
