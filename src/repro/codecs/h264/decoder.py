"""H.264 class decoder: bit-exact inverse of the encoder.

Plays the role of the paper's FFmpeg H.264 decode application.  Applies the
same in-loop deblocking filter as the encoder before a frame is used as a
reference, so encoder and decoder reconstructions never drift.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.codecs.base import EncodedPicture, EncodedVideo, VideoDecoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.h264 import common, intra
from repro.codecs.h264.cavlc import CavlcCoder
from repro.codecs.h264.motion import PARTITION_SHAPES
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
from repro.transform.zigzag import ZIGZAG_2X2, ZIGZAG_4X4, raster_block


def _stack(blocks: List[List[int]]) -> np.ndarray:
    """The ``(n, 4, 4)`` int64 stack of ``n`` raster-order 4x4 level lists."""
    return np.array(blocks, dtype=np.int64).reshape(-1, 4, 4)


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
        qp = check_header("qp", reader.read_bits(6), 0, 51)
        search_range = check_header("search_range", reader.read_bits(8), 1, 255)
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

        self._layer = layer = common.MacroblockLayer(
            self.kernels, stream.width, stream.height, qp, search_range
        )
        for mby in range(stream.height // 16):
            for mbx in range(stream.width // 16):
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
            layer.deblock()
        return layer.recon

    # ------------------------------------------------------------------
    # intra macroblocks
    # ------------------------------------------------------------------

    def _decode_i4_mb(self, reader: BitReader, mbx: int, mby: int) -> None:
        layer = self._layer
        x0, y0 = 16 * mbx, 16 * mby
        for off_x, off_y in common.LUMA_OFFSETS:
            x, y = x0 + off_x, y0 + off_y
            bx, by = x // 4, y // 4
            mpm = common.intra4_mpm(layer.intra4_modes, bx, by)
            if reader.read_bit():
                mode_index = mpm
            else:
                remaining = reader.read_bits(2)
                mode_index = remaining + (1 if remaining >= mpm else 0)
            layer.intra4_modes[(bx, by)] = mode_index
            prediction = intra.predict_luma4(
                layer.recon.y, x, y, intra.LUMA4_MODES[mode_index]
            )
            levels, total_coeff = self.cavlc.decode_block(
                reader, ZIGZAG_4X4.raster, layer.tc_luma.nc(bx, by)
            )
            layer.tc_luma.set(bx, by, total_coeff)
            layer.reconstruct_luma4(x, y, prediction,
                                    raster_block(levels, 4) if total_coeff else None)
        layer.meta.mark_intra_mb(mbx, mby)
        self._decode_intra_chroma(reader, mbx, mby)

    def _decode_i16_mb(self, reader: BitReader, mbx: int, mby: int) -> None:
        layer = self._layer
        x0, y0 = 16 * mbx, 16 * mby
        mode = intra.BLOCK_MODES[read_ue(reader)]
        prediction = intra.predict_block(layer.recon.y, x0, y0, 16, mode)
        has_ac = bool(reader.read_bit())

        nc_dc = layer.tc_luma.nc(4 * mbx, 4 * mby)
        dc_levels, _ = self.cavlc.decode_block(reader, ZIGZAG_4X4.raster, nc_dc)

        ac_levels = []
        for off_x, off_y in common.LUMA_OFFSETS:
            bx, by = (x0 + off_x) // 4, (y0 + off_y) // 4
            total_coeff = 0
            if has_ac:
                levels, total_coeff = self.cavlc.decode_block(
                    reader, ZIGZAG_4X4.raster, layer.tc_luma.nc(bx, by), start=1
                )
                ac_levels.append(levels)
            layer.tc_luma.set(bx, by, total_coeff)
        layer.reconstruct_i16(mbx, mby, prediction, raster_block(dc_levels, 4),
                              _stack(ac_levels) if has_ac else None)
        layer.meta.mark_intra_mb(mbx, mby)
        self._decode_intra_chroma(reader, mbx, mby)

    def _decode_intra_chroma(self, reader: BitReader, mbx: int, mby: int) -> None:
        x, y = 8 * mbx, 8 * mby
        mode = intra.BLOCK_MODES[read_ue(reader)]
        prediction = {
            "u": intra.predict_block(self._layer.recon.u, x, y, 8, mode),
            "v": intra.predict_block(self._layer.recon.v, x, y, 8, mode),
        }
        self._decode_chroma_residual(reader, prediction, mbx, mby)

    # ------------------------------------------------------------------
    # chroma residual
    # ------------------------------------------------------------------

    def _decode_chroma_residual(self, reader: BitReader,
                                prediction: Dict[str, np.ndarray],
                                mbx: int, mby: int) -> None:
        layer = self._layer
        x0, y0 = 8 * mbx, 8 * mby
        cbp = read_ue(reader)
        if cbp > 2:
            raise BitstreamError(f"invalid chroma cbp {cbp}")
        dc_levels: Dict[str, np.ndarray] = {}
        if cbp >= 1:
            for plane in ("u", "v"):
                levels, _ = self.cavlc.decode_block(reader, ZIGZAG_2X2.raster, 0)
                dc_levels[plane] = raster_block(levels, 2)
        ac_levels: Dict[str, np.ndarray] = {}
        for plane in ("u", "v"):
            grid = layer.tc_chroma[plane]
            blocks = []
            for off_x, off_y in common.CHROMA_OFFSETS:
                bx, by = (x0 + off_x) // 4, (y0 + off_y) // 4
                total_coeff = 0
                if cbp == 2:
                    levels, total_coeff = self.cavlc.decode_block(
                        reader, ZIGZAG_4X4.raster, grid.nc(bx, by), start=1
                    )
                    blocks.append(levels)
                grid.set(bx, by, total_coeff)
            if cbp == 2:
                ac_levels[plane] = _stack(blocks)
        layer.reconstruct_chroma(mbx, mby, prediction, cbp, dc_levels, ac_levels)

    # ------------------------------------------------------------------
    # inter machinery
    # ------------------------------------------------------------------

    def _prediction(self, mbx: int, mby: int,
                    assignments: List[common.PartitionAssignment]) -> Dict[str, np.ndarray]:
        """The macroblock prediction, once every parsed vector lies in the search window."""
        for _, _, mv in assignments:
            check_motion_vector(mv, self._layer.search_range, 4)
        return self._layer.prediction(mbx, mby, assignments)

    def _decode_luma_residual(self, reader: BitReader, prediction: np.ndarray,
                              mbx: int, mby: int) -> None:
        """Parse the 16 luma blocks, then rebuild the coded ones as one stack."""
        layer = self._layer
        x0, y0 = 16 * mbx, 16 * mby
        cbp = reader.read_bits(4)
        coded: Dict[int, List[int]] = {}
        for block_index, (off_x, off_y) in enumerate(common.LUMA_OFFSETS):
            bx, by = (x0 + off_x) // 4, (y0 + off_y) // 4
            total_coeff = 0
            if cbp & (1 << common.luma_quadrant(block_index)):
                levels, total_coeff = self.cavlc.decode_block(
                    reader, ZIGZAG_4X4.raster, layer.tc_luma.nc(bx, by)
                )
                if total_coeff:
                    coded[block_index] = levels
            layer.tc_luma.set(bx, by, total_coeff)
        layer.reconstruct_luma(mbx, mby, prediction, coded)

    # ------------------------------------------------------------------
    # P macroblocks
    # ------------------------------------------------------------------

    def _decode_p_mb(self, reader: BitReader, l0: List[WorkingFrame],
                     mbx: int, mby: int) -> None:
        layer = self._layer
        mode = read_ue(reader)
        grid = layer.grid_l0
        bx, by = 4 * mbx, 4 * mby
        if mode == common.P_SKIP:
            mv = grid.predictor(bx, by, 4)
            layer.skip(mbx, mby, mv, self._prediction(mbx, mby, [(l0[0], (0, 0, 16, 16), mv)]))
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
            layer.meta.mark_inter(pbx, pby, width // 4, height // 4, mv, ref_index)
            assignments.append((l0[ref_index], rect, mv))
        prediction = self._prediction(mbx, mby, assignments)
        self._decode_luma_residual(reader, prediction["y"], mbx, mby)
        self._decode_chroma_residual(reader, prediction, mbx, mby)

    # ------------------------------------------------------------------
    # B macroblocks
    # ------------------------------------------------------------------

    def _decode_b_mb(self, reader: BitReader, forward: WorkingFrame,
                     backward: WorkingFrame, mbx: int, mby: int) -> None:
        layer = self._layer
        mode = read_ue(reader)
        bx, by = 4 * mbx, 4 * mby
        rect = (0, 0, 16, 16)
        if mode == common.B_SKIP:
            mv = layer.grid_l0.predictor(bx, by, 4)
            layer.skip(mbx, mby, mv, self._prediction(mbx, mby, [(forward, rect, mv)]))
            return
        if mode == common.B_I4:
            self._decode_i4_mb(reader, mbx, mby)
            return
        if mode == common.B_I16:
            self._decode_i16_mb(reader, mbx, mby)
            return

        mv_fwd = mv_bwd = None
        if mode in (common.B_BI, common.B_FWD):
            predictor = layer.grid_l0.predictor(bx, by, 4)
            mv_fwd = MotionVector(
                predictor.x + read_se(reader), predictor.y + read_se(reader)
            )
            layer.grid_l0.set_rect(bx, by, 4, 4, mv_fwd, 0)
        if mode in (common.B_BI, common.B_BWD):
            predictor = layer.grid_l1.predictor(bx, by, 4)
            mv_bwd = MotionVector(
                predictor.x + read_se(reader), predictor.y + read_se(reader)
            )
            layer.grid_l1.set_rect(bx, by, 4, 4, mv_bwd, 0)
        if mode == common.B_FWD:
            prediction = self._prediction(mbx, mby, [(forward, rect, mv_fwd)])
            layer.meta.mark_inter(bx, by, 4, 4, mv_fwd, 0)
        elif mode == common.B_BWD:
            prediction = self._prediction(mbx, mby, [(backward, rect, mv_bwd)])
            layer.meta.mark_inter(bx, by, 4, 4, mv_bwd, 1)
        elif mode == common.B_BI:
            prediction = layer.average(
                self._prediction(mbx, mby, [(forward, rect, mv_fwd)]),
                self._prediction(mbx, mby, [(backward, rect, mv_bwd)]),
            )
            layer.meta.mark_inter(bx, by, 4, 4, mv_fwd, 0)
        else:
            raise BitstreamError(f"invalid B macroblock mode {mode}")
        self._decode_luma_residual(reader, prediction["y"], mbx, mby)
        self._decode_chroma_residual(reader, prediction, mbx, mby)
