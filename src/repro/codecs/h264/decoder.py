"""H.264 class decoder: bit-exact inverse of the encoder.

Plays the role of the paper's FFmpeg H.264 decode application.  Applies the
same in-loop deblocking filter as the encoder before a frame is used as a
reference, so encoder and decoder reconstructions never drift.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codecs.base import EncodedPicture, EncodedVideo, VideoDecoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.h264 import common, intra
from repro.codecs.h264.common import blocks_to_square
from repro.codecs.h264.cavlc import CavlcCoder
from repro.codecs.h264.deblock import DeblockFilter, DeblockMeta
from repro.codecs.h264.motion import PARTITION_SHAPES, MvGrid4
from repro.common.bitstream import BitReader
from repro.common.expgolomb import read_se, read_ue
from repro.common.gop import FrameType
from repro.errors import BitstreamError, CodecError
from repro.kernels import get_kernels
from repro.me.types import MotionVector
from repro.robustness.guard import (
    check_header,
    check_motion_vector,
    read_frame_type,
)
from repro.transform.zigzag import ZIGZAG_2X2, unscan, unscan4


class H264Decoder(VideoDecoder):
    """H.264 class decoder (see module docstring)."""

    codec_name = "h264"

    def __init__(self, backend: str = "simd") -> None:
        self.kernels = get_kernels(backend)
        self.cavlc = CavlcCoder()
        self._ref_frames = 0

    def reference_window(self) -> int:
        """The stream's reference-frame count plus the B-picture anchors."""
        return self._ref_frames + 2

    def decode_picture(
        self,
        stream: EncodedVideo,
        picture: EncodedPicture,
        references: Dict[int, WorkingFrame],
    ) -> WorkingFrame:
        display_index = picture.display_index
        frame_type = picture.frame_type
        reader = self._open_reader(picture.payload)
        read_frame_type(reader, expected=frame_type)
        self._qp = check_header("qp", reader.read_bits(6), 0, 51)
        self._search_range = check_header(
            "search_range", reader.read_bits(8), 1, 255
        )
        deblock_on = bool(reader.read_bit())
        ref_frames = reader.read_bits(4)
        l0_count = reader.read_bits(4)
        self._ref_frames = ref_frames

        past = sorted(key for key in references if key < display_index)
        future = sorted(key for key in references if key > display_index)
        l0: List[WorkingFrame] = []
        l1: Optional[WorkingFrame] = None
        if frame_type is FrameType.P:
            if not past or l0_count == 0:
                raise CodecError("P picture without past references")
            if l0_count > len(past):
                raise CodecError("stream references more anchors than decoded")
            l0 = [references[key] for key in reversed(past[-l0_count:])]
        elif frame_type is FrameType.B:
            if not past or not future:
                raise CodecError("B picture requires surrounding anchors")
            l0 = [references[past[-1]]]
            l1 = references[future[0]]

        mb_width = stream.width // 16
        mb_height = stream.height // 16
        recon = WorkingFrame.blank(stream.width, stream.height)
        self._recon = recon
        self._meta = DeblockMeta(mb_width, mb_height)
        self._grid_l0 = MvGrid4(mb_width, mb_height)
        self._grid_l1 = MvGrid4(mb_width, mb_height)
        self._tc_luma = common.TcGrid(mb_width * 4, mb_height * 4)
        self._tc_chroma = {
            "u": common.TcGrid(mb_width * 2, mb_height * 2),
            "v": common.TcGrid(mb_width * 2, mb_height * 2),
        }
        self._intra4_modes: Dict[Tuple[int, int], int] = {}

        for mby in range(mb_height):
            for mbx in range(mb_width):
                if frame_type is FrameType.I:
                    mode = read_ue(reader)
                    if mode == common.I_4X4:
                        self._decode_i4_mb(reader, mbx, mby)
                    elif mode == common.I_16X16:
                        self._decode_i16_mb(reader, mbx, mby)
                    else:
                        raise BitstreamError(f"invalid I macroblock mode {mode}")
                elif frame_type is FrameType.P:
                    self._decode_p_mb(reader, l0, mbx, mby)
                else:
                    self._decode_b_mb(reader, l0[0], l1, mbx, mby)
        if deblock_on:
            DeblockFilter(self.kernels, self._qp).apply(recon, self._meta)
        return recon

    # ------------------------------------------------------------------
    # intra macroblocks
    # ------------------------------------------------------------------

    def _decode_i4_mb(self, reader: BitReader, mbx: int, mby: int) -> None:
        kernels = self.kernels
        qp = self._qp
        x0, y0 = 16 * mbx, 16 * mby
        for block_index, (off_x, off_y) in enumerate(common.LUMA_OFFSETS):
            x, y = x0 + off_x, y0 + off_y
            bx, by = x // 4, y // 4
            mpm = common.intra4_mpm(self._intra4_modes, bx, by)
            if reader.read_bit():
                mode_index = mpm
            else:
                remaining = reader.read_bits(2)
                mode_index = remaining + (1 if remaining >= mpm else 0)
            self._intra4_modes[(bx, by)] = mode_index
            prediction = intra.predict_luma4(
                self._recon.y, x, y, intra.LUMA4_MODES[mode_index]
            )
            scanned, total_coeff = self.cavlc.decode_block(
                reader, 16, self._tc_luma.nc(bx, by)
            )
            self._tc_luma.set(bx, by, total_coeff)
            pixels = prediction
            if total_coeff:
                levels = unscan4(scanned)
                rebuilt = kernels.inv_transform4(kernels.dequant_h264_4x4(levels, qp))
                pixels = kernels.add_clip(prediction, rebuilt)
            self._recon.store_block("y", x, y, pixels)
        self._meta.mark_intra_mb(mbx, mby)
        self._decode_intra_chroma(reader, mbx, mby)

    def _decode_i16_mb(self, reader: BitReader, mbx: int, mby: int) -> None:
        kernels = self.kernels
        qp = self._qp
        x0, y0 = 16 * mbx, 16 * mby
        mode = intra.BLOCK_MODES[read_ue(reader)]
        prediction = intra.predict_block(self._recon.y, x0, y0, 16, mode)
        has_ac = bool(reader.read_bit())

        nc_dc = self._tc_luma.nc(4 * mbx, 4 * mby)
        dc_scanned, _ = self.cavlc.decode_block(reader, 16, nc_dc)
        dc_levels = unscan4(dc_scanned)
        dc_rebuilt = kernels.dequant_h264_dc4(dc_levels, qp)

        ac_levels = []
        for off_x, off_y in common.LUMA_OFFSETS:
            bx, by = (x0 + off_x) // 4, (y0 + off_y) // 4
            total_coeff = 0
            if has_ac:
                scanned, total_coeff = self.cavlc.decode_block(
                    reader, 15, self._tc_luma.nc(bx, by)
                )
                ac_levels.append(unscan4([0] + scanned))
            self._tc_luma.set(bx, by, total_coeff)
        if has_ac:
            coeffs = kernels.dequant_h264_4x4(np.stack(ac_levels), qp)
        else:
            coeffs = np.zeros((16, 4, 4), dtype=np.int64)
        coeffs[:, 0, 0] = dc_rebuilt.ravel()
        residual = blocks_to_square(kernels.inv_transform4(coeffs))
        self._recon.store_block("y", x0, y0, kernels.add_clip(prediction, residual))
        self._meta.mark_intra_mb(mbx, mby)
        self._decode_intra_chroma(reader, mbx, mby)

    def _decode_intra_chroma(self, reader: BitReader, mbx: int, mby: int) -> None:
        x, y = 8 * mbx, 8 * mby
        mode = intra.BLOCK_MODES[read_ue(reader)]
        prediction = {
            "u": intra.predict_block(self._recon.u, x, y, 8, mode),
            "v": intra.predict_block(self._recon.v, x, y, 8, mode),
        }
        self._decode_chroma_residual(reader, prediction, mbx, mby)

    # ------------------------------------------------------------------
    # chroma residual
    # ------------------------------------------------------------------

    def _decode_chroma_residual(self, reader: BitReader,
                                prediction: Dict[str, np.ndarray],
                                mbx: int, mby: int) -> None:
        kernels = self.kernels
        qp = self._qp
        x0, y0 = 8 * mbx, 8 * mby
        cbp = read_ue(reader)
        if cbp > 2:
            raise BitstreamError(f"invalid chroma cbp {cbp}")
        dc_levels: Dict[str, np.ndarray] = {}
        if cbp >= 1:
            for plane in ("u", "v"):
                scanned, _ = self.cavlc.decode_block(reader, 4, 0)
                dc_levels[plane] = unscan(scanned, ZIGZAG_2X2, 2)
        ac_levels: Dict[str, List[np.ndarray]] = {"u": [], "v": []}
        for plane in ("u", "v"):
            grid = self._tc_chroma[plane]
            for off_x, off_y in common.CHROMA_OFFSETS:
                bx, by = (x0 + off_x) // 4, (y0 + off_y) // 4
                total_coeff = 0
                if cbp == 2:
                    scanned, total_coeff = self.cavlc.decode_block(
                        reader, 15, grid.nc(bx, by)
                    )
                    ac_levels[plane].append(unscan4([0] + scanned))
                grid.set(bx, by, total_coeff)

        for plane in ("u", "v"):
            pixels = prediction[plane]
            if cbp:
                if cbp == 2:
                    coeffs = kernels.dequant_h264_4x4(np.stack(ac_levels[plane]), qp)
                else:
                    coeffs = np.zeros((4, 4, 4), dtype=np.int64)
                coeffs[:, 0, 0] = kernels.dequant_h264_dc2(dc_levels[plane], qp).ravel()
                residual = blocks_to_square(kernels.inv_transform4(coeffs))
                pixels = kernels.add_clip(prediction[plane], residual)
            self._recon.store_block(plane, x0, y0, pixels)

    # ------------------------------------------------------------------
    # inter machinery
    # ------------------------------------------------------------------

    def _partition_prediction(
        self,
        mbx: int,
        mby: int,
        assignments: List[Tuple[WorkingFrame, Tuple[int, int, int, int], MotionVector]],
    ) -> Dict[str, np.ndarray]:
        """Assemble an MB prediction from per-partition (reference, rect, mv) triples."""
        kernels = self.kernels
        search_range = self._search_range
        pred_y = np.zeros((16, 16), dtype=np.int64)
        pred_c = {
            "u": np.zeros((8, 8), dtype=np.int64),
            "v": np.zeros((8, 8), dtype=np.int64),
        }
        for reference, (off_x, off_y, width, height), mv in assignments:
            check_motion_vector(mv, search_range, 4)
            luma = reference.padded("y", search_range)
            px, py = luma.offset(16 * mbx + off_x, 16 * mby + off_y)
            pred_y[off_y : off_y + height, off_x : off_x + width] = kernels.mc_qpel_h264(
                luma.plane, px, py, width, height, mv.x, mv.y
            )
            for plane in ("u", "v"):
                padded = reference.padded(plane, search_range)
                cx, cy = padded.offset(8 * mbx + off_x // 2, 8 * mby + off_y // 2)
                pred_c[plane][
                    off_y // 2 : (off_y + height) // 2,
                    off_x // 2 : (off_x + width) // 2,
                ] = kernels.mc_chroma_bilinear8(
                    padded.plane, cx, cy, width // 2, height // 2, mv.x, mv.y
                )
        return {"y": pred_y, "u": pred_c["u"], "v": pred_c["v"]}

    def _decode_luma_residual(self, reader: BitReader, prediction: np.ndarray,
                              mbx: int, mby: int) -> None:
        """Parse the 16 luma blocks, then rebuild the coded ones as one stack.

        ``mark_inter`` has cleared the macroblock's nonzero cells already.
        """
        kernels = self.kernels
        x0, y0 = 16 * mbx, 16 * mby
        cbp = reader.read_bits(4)
        coded: List[int] = []
        levels: List[np.ndarray] = []
        for block_index, (off_x, off_y) in enumerate(common.LUMA_OFFSETS):
            bx, by = (x0 + off_x) // 4, (y0 + off_y) // 4
            total_coeff = 0
            if cbp & (1 << common.luma_quadrant(block_index)):
                scanned, total_coeff = self.cavlc.decode_block(
                    reader, 16, self._tc_luma.nc(bx, by)
                )
                if total_coeff:
                    coded.append(block_index)
                    levels.append(unscan4(scanned))
                    self._meta.set_nonzero(bx, by, True)
            self._tc_luma.set(bx, by, total_coeff)
        pixels = prediction
        if coded:
            residual = np.zeros((16, 4, 4), dtype=np.int64)
            residual[coded] = kernels.inv_transform4(
                kernels.dequant_h264_4x4(np.stack(levels), self._qp)
            )
            pixels = kernels.add_clip(prediction, blocks_to_square(residual))
        self._recon.store_block("y", x0, y0, pixels)

    def _store_prediction(self, prediction: Dict[str, np.ndarray],
                          mbx: int, mby: int) -> None:
        """Reconstruct a macroblock with no residual: its prediction, as is."""
        x0, y0 = 16 * mbx, 16 * mby
        for off_x, off_y in common.LUMA_OFFSETS:
            self._tc_luma.set((x0 + off_x) // 4, (y0 + off_y) // 4, 0)
        self._recon.store_block("y", x0, y0, prediction["y"])
        cx0, cy0 = 8 * mbx, 8 * mby
        for plane in ("u", "v"):
            grid = self._tc_chroma[plane]
            for off_x, off_y in common.CHROMA_OFFSETS:
                grid.set((cx0 + off_x) // 4, (cy0 + off_y) // 4, 0)
            self._recon.store_block(plane, cx0, cy0, prediction[plane])

    # ------------------------------------------------------------------
    # P macroblocks
    # ------------------------------------------------------------------

    def _decode_p_mb(self, reader: BitReader, l0: List[WorkingFrame],
                     mbx: int, mby: int) -> None:
        mode = read_ue(reader)
        grid = self._grid_l0
        bx, by = 4 * mbx, 4 * mby
        if mode == common.P_SKIP:
            mv = grid.predictor(bx, by, 4)
            grid.set_rect(bx, by, 4, 4, mv, 0)
            self._meta.mark_inter(bx, by, 4, 4, mv, 0)
            prediction = self._partition_prediction(mbx, mby, [(l0[0], (0, 0, 16, 16), mv)])
            self._store_prediction(prediction, mbx, mby)
            return
        if mode == common.P_I4:
            self._decode_i4_mb(reader, mbx, mby)
            return
        if mode == common.P_I16:
            self._decode_i16_mb(reader, mbx, mby)
            return
        shape = common.SHAPE_FOR_P_MODE.get(mode)
        if shape is None:
            raise BitstreamError(f"invalid P macroblock mode {mode}")
        assignments = []
        for rect in PARTITION_SHAPES[shape]:
            off_x, off_y, width, height = rect
            pbx, pby = (16 * mbx + off_x) // 4, (16 * mby + off_y) // 4
            ref_index = read_ue(reader) if len(l0) > 1 else 0
            if ref_index >= len(l0):
                raise BitstreamError(f"reference index {ref_index} out of range")
            predictor = grid.predictor(pbx, pby, width // 4)
            mv = MotionVector(predictor.x + read_se(reader), predictor.y + read_se(reader))
            grid.set_rect(pbx, pby, width // 4, height // 4, mv, ref_index)
            self._meta.mark_inter(pbx, pby, width // 4, height // 4, mv, ref_index)
            assignments.append((l0[ref_index], rect, mv))
        prediction = self._partition_prediction(mbx, mby, assignments)
        self._decode_luma_residual(reader, prediction["y"], mbx, mby)
        self._decode_chroma_residual(reader, prediction, mbx, mby)

    # ------------------------------------------------------------------
    # B macroblocks
    # ------------------------------------------------------------------

    def _decode_b_mb(self, reader: BitReader, forward: WorkingFrame,
                     backward: WorkingFrame, mbx: int, mby: int) -> None:
        mode = read_ue(reader)
        bx, by = 4 * mbx, 4 * mby
        rect = (0, 0, 16, 16)
        if mode == common.B_SKIP:
            mv = self._grid_l0.predictor(bx, by, 4)
            self._grid_l0.set_rect(bx, by, 4, 4, mv, 0)
            self._meta.mark_inter(bx, by, 4, 4, mv, 0)
            prediction = self._partition_prediction(mbx, mby, [(forward, rect, mv)])
            self._store_prediction(prediction, mbx, mby)
            return
        if mode == common.B_I4:
            self._decode_i4_mb(reader, mbx, mby)
            return
        if mode == common.B_I16:
            self._decode_i16_mb(reader, mbx, mby)
            return

        kernels = self.kernels
        mv_fwd = mv_bwd = None
        if mode in (common.B_BI, common.B_FWD):
            predictor = self._grid_l0.predictor(bx, by, 4)
            mv_fwd = MotionVector(
                predictor.x + read_se(reader), predictor.y + read_se(reader)
            )
            self._grid_l0.set_rect(bx, by, 4, 4, mv_fwd, 0)
        if mode in (common.B_BI, common.B_BWD):
            predictor = self._grid_l1.predictor(bx, by, 4)
            mv_bwd = MotionVector(
                predictor.x + read_se(reader), predictor.y + read_se(reader)
            )
            self._grid_l1.set_rect(bx, by, 4, 4, mv_bwd, 0)
        if mode == common.B_FWD:
            prediction = self._partition_prediction(mbx, mby, [(forward, rect, mv_fwd)])
            self._meta.mark_inter(bx, by, 4, 4, mv_fwd, 0)
        elif mode == common.B_BWD:
            prediction = self._partition_prediction(mbx, mby, [(backward, rect, mv_bwd)])
            self._meta.mark_inter(bx, by, 4, 4, mv_bwd, 1)
        elif mode == common.B_BI:
            pred_fwd = self._partition_prediction(mbx, mby, [(forward, rect, mv_fwd)])
            pred_bwd = self._partition_prediction(mbx, mby, [(backward, rect, mv_bwd)])
            prediction = {
                name: kernels.average(pred_fwd[name], pred_bwd[name])
                for name in ("y", "u", "v")
            }
            self._meta.mark_inter(bx, by, 4, 4, mv_fwd, 0)
        else:
            raise BitstreamError(f"invalid B macroblock mode {mode}")
        self._decode_luma_residual(reader, prediction["y"], mbx, mby)
        self._decode_chroma_residual(reader, prediction, mbx, mby)
