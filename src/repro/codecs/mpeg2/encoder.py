"""MPEG-2 class encoder.

Implements the MPEG-2 Main Profile toolset the paper's FFmpeg encoder
exercises: I/P/B pictures in the fixed I-P-B-B GOP, 8x8 DCT with the
default intra/inter quantiser matrices, 16x16 motion compensation with
half-pel bilinear interpolation, EPZS motion estimation, differential
intra-DC prediction and run/level VLC entropy coding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codecs.base import (
    EncodedPicture,
    EncodedVideo,
    VideoEncoder,
)
from repro.codecs.frames import WorkingFrame
from repro.codecs.mpeg2 import tables
from repro.codecs.mpeg2.coefficients import encode_run_level
from repro.codecs.mpeg2.config import Mpeg2Config
from repro.codecs.mpeg2.prediction import average_prediction, predict_mb
from repro.common.bitstream import BitWriter
from repro.common.expgolomb import se_bit_length, write_se
from repro.common.gop import CodedFrame, FrameType
from repro.common.yuv import YuvSequence
from repro.errors import CodecError
from repro.kernels import get_kernels
from repro.kernels.tables import MPEG_INTER_MATRIX, MPEG_INTRA_MATRIX
from repro.me.cost import MotionCost, lambda_from_qp
from repro.me.search import run_search
from repro.me.subpel import refine_subpel
from repro.me.types import MotionVector, SearchResult, ZERO_MV
from repro.transform.qp import h264_qp_from_mpeg
from repro.transform.zigzag import scan8

#: Fixed-cost bias (in SAD units) that inter prediction must beat before a
#: macroblock falls back to intra coding, as in FFmpeg's mb decision.
INTRA_BIAS = 128


def _halve_to_zero(value: int) -> int:
    return value // 2 if value >= 0 else -((-value) // 2)


def _int_mv_from_halfpel(mv: MotionVector) -> MotionVector:
    return MotionVector(_halve_to_zero(mv.x), _halve_to_zero(mv.y))


class Mpeg2Encoder(VideoEncoder):
    """MPEG-2 class encoder (see module docstring)."""

    codec_name = "mpeg2"

    def __init__(self, config: Mpeg2Config) -> None:
        super().__init__(config)
        self.config: Mpeg2Config = config
        self.kernels = get_kernels(config.backend)
        self.lagrangian = lambda_from_qp(h264_qp_from_mpeg(config.qscale))

    # ------------------------------------------------------------------
    # sequence level
    # ------------------------------------------------------------------

    def encode_sequence(self, video: YuvSequence) -> EncodedVideo:
        self._check_input(video)
        stream = EncodedVideo(
            codec=self.codec_name,
            width=self.config.width,
            height=self.config.height,
            fps=video.fps,
        )
        references: Dict[int, WorkingFrame] = {}
        for entry in self.config.gop.coding_order(len(video)):
            source = WorkingFrame.from_yuv(video[entry.display_index])
            forward = references.get(entry.forward_ref) if entry.forward_ref is not None else None
            backward = references.get(entry.backward_ref) if entry.backward_ref is not None else None
            if entry.frame_type is not FrameType.I and forward is None:
                raise CodecError(f"missing forward reference for frame {entry.display_index}")
            if entry.frame_type is FrameType.B and backward is None:
                raise CodecError(f"missing backward reference for frame {entry.display_index}")
            payload, recon = self._encode_picture(entry, source, forward, backward)
            stream.pictures.append(
                EncodedPicture(payload, entry.display_index, entry.frame_type)
            )
            self.stats.frame_bits.append(8 * len(payload))
            if entry.frame_type.is_anchor and recon is not None:
                references[entry.display_index] = recon
                for key in sorted(references)[:-2]:
                    del references[key]
        return stream

    # ------------------------------------------------------------------
    # picture level
    # ------------------------------------------------------------------

    _TYPE_CODE = {FrameType.I: 0, FrameType.P: 1, FrameType.B: 2}

    def _encode_picture(
        self,
        entry: CodedFrame,
        source: WorkingFrame,
        forward: Optional[WorkingFrame],
        backward: Optional[WorkingFrame],
    ) -> Tuple[bytes, Optional[WorkingFrame]]:
        config = self.config
        writer = BitWriter()
        writer.write_bits(self._TYPE_CODE[entry.frame_type], 2)
        writer.write_bits(config.qscale, 5)
        writer.write_bits(config.search_range, 8)

        is_anchor = entry.frame_type.is_anchor
        recon = WorkingFrame.blank(config.width, config.height) if is_anchor else None

        # Per-picture coding state.
        self._pmv_fwd = ZERO_MV
        self._pmv_bwd = ZERO_MV
        self._dc_pred = dict.fromkeys(("y", "u", "v"), tables.DC_PREDICTOR_RESET)
        self._mv_field: List[List[Optional[MotionVector]]] = [
            [None] * config.mb_width for _ in range(config.mb_height)
        ]

        for mby in range(config.mb_height):
            self._reset_row_state()
            for mbx in range(config.mb_width):
                if entry.frame_type is FrameType.I:
                    self._encode_intra_mb(writer, source, recon, mbx, mby)
                elif entry.frame_type is FrameType.P:
                    self._encode_p_mb(writer, source, recon, forward, mbx, mby)
                else:
                    self._encode_b_mb(writer, source, forward, backward, mbx, mby)
        writer.align()
        return writer.to_bytes(), recon

    def _reset_row_state(self) -> None:
        self._pmv_fwd = ZERO_MV
        self._pmv_bwd = ZERO_MV
        for name in ("y", "u", "v"):
            self._dc_pred[name] = tables.DC_PREDICTOR_RESET

    def _reset_dc_pred(self) -> None:
        for name in ("y", "u", "v"):
            self._dc_pred[name] = tables.DC_PREDICTOR_RESET

    # ------------------------------------------------------------------
    # intra macroblocks
    # ------------------------------------------------------------------

    def _encode_intra_mb(
        self,
        writer: BitWriter,
        source: WorkingFrame,
        recon: Optional[WorkingFrame],
        mbx: int,
        mby: int,
    ) -> None:
        kernels = self.kernels
        qscale = self.config.qscale
        for plane, off_x, off_y in tables.BLOCK_LAYOUT:
            base = 16 if plane == "y" else 8
            x = mbx * base + off_x
            y = mby * base + off_y
            block = source.plane(plane)[y : y + 8, x : x + 8]
            coeffs = kernels.fdct8(block)
            levels = kernels.quant_mpeg(coeffs, MPEG_INTRA_MATRIX, qscale, intra=True)
            dc = int(levels[0, 0])
            write_se(writer, dc - self._dc_pred[plane])
            self._dc_pred[plane] = dc
            encode_run_level(writer, scan8(levels), start=1)
            if recon is not None:
                rebuilt = kernels.dequant_mpeg(levels, MPEG_INTRA_MATRIX, qscale, intra=True)
                pixels = kernels.add_clip(np.zeros((8, 8), dtype=np.int64), kernels.idct8(rebuilt))
                recon.store_block(plane, x, y, pixels)
        self.stats.intra_macroblocks += 1

    # ------------------------------------------------------------------
    # motion estimation helpers
    # ------------------------------------------------------------------

    def _spatial_predictors(self, mbx: int, mby: int) -> List[MotionVector]:
        field = self._mv_field
        predictors = []
        if mbx > 0 and field[mby][mbx - 1] is not None:
            predictors.append(field[mby][mbx - 1])
        if mby > 0:
            if field[mby - 1][mbx] is not None:
                predictors.append(field[mby - 1][mbx])
            if mbx + 1 < self.config.mb_width and field[mby - 1][mbx + 1] is not None:
                predictors.append(field[mby - 1][mbx + 1])
        return predictors

    def _search_luma(
        self,
        source: WorkingFrame,
        reference: WorkingFrame,
        mbx: int,
        mby: int,
        pmv: MotionVector,
    ) -> SearchResult:
        """Integer EPZS + half-pel refinement; result MV in half-pel units."""
        config = self.config
        kernels = self.kernels
        x, y = mbx * 16, mby * 16
        current = source.y[y : y + 16, x : x + 16]
        padded = reference.padded("y", config.search_range)
        cost = MotionCost(
            kernels=kernels,
            current=current,
            reference=padded,
            x=x,
            y=y,
            width=16,
            height=16,
            predictor=_int_mv_from_halfpel(pmv),
            lagrangian=self.lagrangian,
            search_range=config.search_range,
        )
        integer = run_search(config.me_algorithm, cost, self._spatial_predictors(mbx, mby))
        return refine_subpel(
            kernels,
            current,
            padded,
            x,
            y,
            16,
            16,
            integer,
            predictor=pmv,
            lagrangian=self.lagrangian,
            unit=2,
            interp="mc_halfpel",
        )

    def _predict_mb(
        self, reference: WorkingFrame, mbx: int, mby: int, mv: MotionVector
    ) -> Dict[str, np.ndarray]:
        """Motion-compensated prediction of all three planes for one MB."""
        return predict_mb(
            self.kernels, reference, mbx, mby, mv, self.config.search_range
        )

    # ------------------------------------------------------------------
    # residual coding
    # ------------------------------------------------------------------

    def _quantise_residual(
        self,
        source: WorkingFrame,
        prediction: Dict[str, np.ndarray],
        mbx: int,
        mby: int,
    ) -> Tuple[int, List[Optional[np.ndarray]]]:
        """Transform/quantise the 6 residual blocks; returns (cbp, levels)."""
        kernels = self.kernels
        qscale = self.config.qscale
        cbp = 0
        all_levels: List[Optional[np.ndarray]] = []
        for block_index, (plane, off_x, off_y) in enumerate(tables.BLOCK_LAYOUT):
            if plane == "y":
                x, y = mbx * 16 + off_x, mby * 16 + off_y
                pred_block = prediction["y"][off_y : off_y + 8, off_x : off_x + 8]
            else:
                x, y = mbx * 8, mby * 8
                pred_block = prediction[plane]
            current = source.plane(plane)[y : y + 8, x : x + 8]
            residual = kernels.sub(current, pred_block)
            coeffs = kernels.fdct8(residual)
            levels = kernels.quant_mpeg(coeffs, MPEG_INTER_MATRIX, qscale, intra=False)
            if np.any(levels):
                cbp |= tables.cbp_bit(block_index)
                all_levels.append(levels)
            else:
                all_levels.append(None)
        return cbp, all_levels

    def _write_residual(self, writer: BitWriter, cbp: int,
                        all_levels: List[Optional[np.ndarray]]) -> None:
        tables.CBP_TABLE.write(writer, cbp)
        for levels in all_levels:
            if levels is not None:
                encode_run_level(writer, scan8(levels), start=0)

    def _reconstruct_inter(
        self,
        recon: WorkingFrame,
        prediction: Dict[str, np.ndarray],
        all_levels: List[Optional[np.ndarray]],
        mbx: int,
        mby: int,
    ) -> None:
        kernels = self.kernels
        qscale = self.config.qscale
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
                coeffs = kernels.dequant_mpeg(levels, MPEG_INTER_MATRIX, qscale, intra=False)
                pixels = kernels.add_clip(pred_block, kernels.idct8(coeffs))
            recon.store_block(plane, x, y, pixels)

    # ------------------------------------------------------------------
    # P macroblocks
    # ------------------------------------------------------------------

    def _intra_cost(self, source: WorkingFrame, mbx: int, mby: int) -> int:
        block = source.y[mby * 16 : mby * 16 + 16, mbx * 16 : mbx * 16 + 16]
        mean = int(np.mean(block) + 0.5)
        flat = np.full((16, 16), mean, dtype=np.int64)
        return self.kernels.sad(block, flat) + INTRA_BIAS

    def _encode_p_mb(
        self,
        writer: BitWriter,
        source: WorkingFrame,
        recon: WorkingFrame,
        forward: WorkingFrame,
        mbx: int,
        mby: int,
    ) -> None:
        best = self._search_luma(source, forward, mbx, mby, self._pmv_fwd)
        if self._intra_cost(source, mbx, mby) < best.cost:
            tables.MB_P_TABLE.write(writer, "intra")
            self._reset_dc_pred()
            self._encode_intra_mb(writer, source, recon, mbx, mby)
            self._pmv_fwd = ZERO_MV
            self._mv_field[mby][mbx] = ZERO_MV
            return
        mv = best.mv
        prediction = self._predict_mb(forward, mbx, mby, mv)
        cbp, all_levels = self._quantise_residual(source, prediction, mbx, mby)
        if cbp == 0 and mv == ZERO_MV:
            tables.MB_P_TABLE.write(writer, "skip")
            self._pmv_fwd = ZERO_MV
            self._mv_field[mby][mbx] = ZERO_MV
            self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)
            self._reset_dc_pred()
            self.stats.skipped_macroblocks += 1
            return
        tables.MB_P_TABLE.write(writer, "inter")
        write_se(writer, mv.x - self._pmv_fwd.x)
        write_se(writer, mv.y - self._pmv_fwd.y)
        self._pmv_fwd = mv
        self._mv_field[mby][mbx] = _int_mv_from_halfpel(mv)
        self._write_residual(writer, cbp, all_levels)
        self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)
        self._reset_dc_pred()
        self.stats.inter_macroblocks += 1

    # ------------------------------------------------------------------
    # B macroblocks
    # ------------------------------------------------------------------

    def _encode_b_mb(
        self,
        writer: BitWriter,
        source: WorkingFrame,
        forward: WorkingFrame,
        backward: WorkingFrame,
        mbx: int,
        mby: int,
    ) -> None:
        kernels = self.kernels
        fwd = self._search_luma(source, forward, mbx, mby, self._pmv_fwd)
        bwd = self._search_luma(source, backward, mbx, mby, self._pmv_bwd)

        x, y = mbx * 16, mby * 16
        current = source.y[y : y + 16, x : x + 16]
        pred_fwd = self._predict_mb(forward, mbx, mby, fwd.mv)
        pred_bwd = self._predict_mb(backward, mbx, mby, bwd.mv)
        bi_luma = kernels.average(pred_fwd["y"], pred_bwd["y"])
        bi_rate = (
            se_bit_length(fwd.mv.x - self._pmv_fwd.x)
            + se_bit_length(fwd.mv.y - self._pmv_fwd.y)
            + se_bit_length(bwd.mv.x - self._pmv_bwd.x)
            + se_bit_length(bwd.mv.y - self._pmv_bwd.y)
        )
        bi_cost = kernels.sad(current, bi_luma) + self.lagrangian * bi_rate

        mode_costs = {"fwd": fwd.cost, "bwd": bwd.cost, "bi": bi_cost}
        mode = min(mode_costs, key=mode_costs.get)
        if self._intra_cost(source, mbx, mby) < mode_costs[mode]:
            tables.MB_B_TABLE.write(writer, "intra")
            self._reset_dc_pred()
            self._encode_intra_mb(writer, source, None, mbx, mby)
            self._pmv_fwd = ZERO_MV
            self._pmv_bwd = ZERO_MV
            self._mv_field[mby][mbx] = ZERO_MV
            return

        if mode == "fwd":
            prediction = pred_fwd
        elif mode == "bwd":
            prediction = pred_bwd
        else:
            prediction = average_prediction(kernels, pred_fwd, pred_bwd)
        cbp, all_levels = self._quantise_residual(source, prediction, mbx, mby)

        if mode == "fwd" and cbp == 0 and fwd.mv == self._pmv_fwd:
            tables.MB_B_TABLE.write(writer, "skip")
            self._mv_field[mby][mbx] = _int_mv_from_halfpel(fwd.mv)
            self.stats.skipped_macroblocks += 1
            return

        tables.MB_B_TABLE.write(writer, mode)
        if mode in ("fwd", "bi"):
            write_se(writer, fwd.mv.x - self._pmv_fwd.x)
            write_se(writer, fwd.mv.y - self._pmv_fwd.y)
            self._pmv_fwd = fwd.mv
        if mode in ("bwd", "bi"):
            write_se(writer, bwd.mv.x - self._pmv_bwd.x)
            write_se(writer, bwd.mv.y - self._pmv_bwd.y)
            self._pmv_bwd = bwd.mv
        self._mv_field[mby][mbx] = _int_mv_from_halfpel(
            fwd.mv if mode in ("fwd", "bi") else bwd.mv
        )
        self._write_residual(writer, cbp, all_levels)
        self.stats.inter_macroblocks += 1
