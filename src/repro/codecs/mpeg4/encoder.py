"""MPEG-4 ASP class encoder.

Implements the Advanced-Simple-Profile toolset of the paper's Xvid
application: quarter-pel motion compensation (``qpel``), the four-motion-
vector 8x8 inter mode, intra AC/DC prediction, H.263-style quantisation,
EPZS motion estimation with median MV prediction, and three-dimensional
(last, run, level) VLC entropy coding — each the reason this codec sits
between MPEG-2 and H.264 in both compression and compute cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codecs.base import EncodedPicture, EncodedVideo, VideoEncoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.mpeg4 import tables
from repro.codecs.mpeg4.acdc import AcDcStore, apply_ac_prediction, predict
from repro.codecs.mpeg4.coefficients import encode_3d, estimate_3d_bits
from repro.codecs.mpeg4.config import Mpeg4Config
from repro.codecs.mpeg4.motion import MvGrid
from repro.codecs.mpeg4.prediction import (
    average_prediction,
    predict_mb_4mv,
    predict_mb_qpel,
)
from repro.codecs.mpeg2.prediction import predict_mb as predict_mb_halfpel
from repro.common.bitstream import BitWriter
from repro.common.expgolomb import se_bit_length, write_se
from repro.common.gop import CodedFrame, FrameType
from repro.common.yuv import YuvSequence
from repro.errors import CodecError
from repro.kernels import get_kernels
from repro.me.cost import MotionCost, lambda_from_qp
from repro.me.search import run_search
from repro.me.subpel import refine_subpel
from repro.me.types import MotionVector, SearchResult, ZERO_MV
from repro.transform.qp import h264_qp_from_mpeg
from repro.transform.zigzag import scan8

INTRA_BIAS = 128
#: Extra cost charged to the four-MV mode for its added side information.
FOUR_MV_BIAS_BITS = 10


def _div_to_zero(value: int, divisor: int) -> int:
    return value // divisor if value >= 0 else -((-value) // divisor)


def _int_mv(mv: MotionVector, unit: int) -> MotionVector:
    return MotionVector(_div_to_zero(mv.x, unit), _div_to_zero(mv.y, unit))


class Mpeg4Encoder(VideoEncoder):
    """MPEG-4 ASP class encoder (see module docstring)."""

    codec_name = "mpeg4"

    def __init__(self, config: Mpeg4Config) -> None:
        super().__init__(config)
        self.config: Mpeg4Config = config
        self.kernels = get_kernels(config.backend)
        self.lagrangian = lambda_from_qp(h264_qp_from_mpeg(config.qscale))
        self.unit = 4 if config.qpel else 2

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
            stream.pictures.append(EncodedPicture(payload, entry.display_index, entry.frame_type))
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
        writer.write_bit(1 if config.qpel else 0)
        writer.write_bit(1 if config.four_mv else 0)

        is_anchor = entry.frame_type.is_anchor
        recon = WorkingFrame.blank(config.width, config.height) if is_anchor else None

        self._grid = MvGrid(config.mb_width, config.mb_height)
        self._acdc = {name: AcDcStore() for name in ("y", "u", "v")}

        for mby in range(config.mb_height):
            self._pmv_fwd = ZERO_MV
            self._pmv_bwd = ZERO_MV
            for mbx in range(config.mb_width):
                if entry.frame_type is FrameType.I:
                    self._encode_intra_mb(writer, source, recon, mbx, mby)
                elif entry.frame_type is FrameType.P:
                    self._encode_p_mb(writer, source, recon, forward, mbx, mby)
                else:
                    self._encode_b_mb(writer, source, forward, backward, mbx, mby)
        writer.align()
        return writer.to_bytes(), recon

    # ------------------------------------------------------------------
    # intra macroblocks
    # ------------------------------------------------------------------

    def _block_grid(self, plane: str, mbx: int, mby: int, block_index: int) -> Tuple[int, int]:
        if plane == "y":
            return 2 * mbx + (block_index & 1), 2 * mby + (block_index >> 1)
        return mbx, mby

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

        prepared = []
        bits_raw = 0
        bits_pred = 0
        for block_index, (plane, off_x, off_y) in enumerate(tables.BLOCK_LAYOUT):
            base = 16 if plane == "y" else 8
            x = mbx * base + off_x
            y = mby * base + off_y
            block = source.plane(plane)[y : y + 8, x : x + 8]
            levels = kernels.quant_h263(kernels.fdct8(block), qscale, intra=True)
            bx, by = self._block_grid(plane, mbx, mby, block_index)
            direction, pred_dc, pred_ac = predict(self._acdc[plane], bx, by)
            self._acdc[plane].put(bx, by, levels)
            adjusted = apply_ac_prediction(levels, direction, pred_ac, -1)
            raw_scan = scan8(levels)
            pred_scan = scan8(adjusted)
            bits_raw += estimate_3d_bits(raw_scan, start=1)
            bits_pred += estimate_3d_bits(pred_scan, start=1)
            prepared.append((plane, x, y, levels, pred_dc, raw_scan, pred_scan))

        use_prediction = bits_pred < bits_raw
        writer.write_bit(1 if use_prediction else 0)

        cbp = 0
        for block_index, (_, _, _, _, _, raw_scan, pred_scan) in enumerate(prepared):
            scanned = pred_scan if use_prediction else raw_scan
            if any(scanned[1:]):
                cbp |= tables.cbp_bit(block_index)
        tables.CBP_TABLE.write(writer, cbp)

        for block_index, (plane, x, y, levels, pred_dc, raw_scan, pred_scan) in enumerate(prepared):
            dc = int(levels[0, 0])
            write_se(writer, dc - pred_dc)
            if cbp & tables.cbp_bit(block_index):
                scanned = pred_scan if use_prediction else raw_scan
                encode_3d(writer, scanned, start=1)
            if recon is not None:
                coeffs = kernels.dequant_h263(levels, qscale, intra=True)
                pixels = kernels.add_clip(
                    np.zeros((8, 8), dtype=np.int64), kernels.idct8(coeffs)
                )
                recon.store_block(plane, x, y, pixels)
        self.stats.intra_macroblocks += 1

    # ------------------------------------------------------------------
    # motion estimation
    # ------------------------------------------------------------------

    def _search_block(
        self,
        source_block: np.ndarray,
        reference: WorkingFrame,
        x: int,
        y: int,
        size: int,
        predictor_frac: MotionVector,
        extra_int: List[MotionVector],
    ) -> SearchResult:
        """Integer search + sub-pel refinement; result in fractional units."""
        config = self.config
        kernels = self.kernels
        padded = reference.padded("y", config.search_range)
        cost = MotionCost(
            kernels=kernels,
            current=source_block,
            reference=padded,
            x=x,
            y=y,
            width=size,
            height=size,
            predictor=_int_mv(predictor_frac, self.unit),
            lagrangian=self.lagrangian,
            search_range=config.search_range,
        )
        integer = run_search(config.me_algorithm, cost, extra_int)
        return refine_subpel(
            kernels, source_block, padded, x, y, size, size,
            integer,
            predictor=predictor_frac,
            lagrangian=self.lagrangian,
            unit=self.unit,
            interp="mc_qpel_bilinear" if config.qpel else "mc_halfpel",
        )

    def _predict_inter(self, reference: WorkingFrame, mbx: int, mby: int,
                       mv: MotionVector) -> Dict[str, np.ndarray]:
        if self.config.qpel:
            return predict_mb_qpel(
                self.kernels, reference, mbx, mby, mv, self.config.search_range
            )
        return predict_mb_halfpel(
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
            levels = kernels.quant_h263(kernels.fdct8(residual), qscale, intra=False)
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
                encode_3d(writer, scan8(levels), start=0)

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
                coeffs = kernels.dequant_h263(levels, qscale, intra=False)
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

    def _mark_intra(self, mbx: int, mby: int) -> None:
        self._grid.set_block(2 * mbx, 2 * mby, 2, 2, ZERO_MV)

    def _encode_p_mb(
        self,
        writer: BitWriter,
        source: WorkingFrame,
        recon: WorkingFrame,
        forward: WorkingFrame,
        mbx: int,
        mby: int,
    ) -> None:
        config = self.config
        x, y = mbx * 16, mby * 16
        current16 = source.y[y : y + 16, x : x + 16]
        bx, by = 2 * mbx, 2 * mby

        predictor16 = self._grid.predictor(bx, by, 2)
        extra = [_int_mv(mv, self.unit) for mv in self._grid.neighbours(bx, by)]
        best16 = self._search_block(current16, forward, x, y, 16, predictor16, extra)

        best4: Optional[List[SearchResult]] = None
        cost4 = None
        # The four-MV mode is defined on the quarter-pel path only.
        if config.four_mv and config.qpel:
            best4 = []
            cost4 = self.lagrangian * FOUR_MV_BIAS_BITS
            seed = [_int_mv(best16.mv, self.unit)]
            for block_index in range(4):
                off_x = 8 * (block_index & 1)
                off_y = 8 * (block_index >> 1)
                block = source.y[y + off_y : y + off_y + 8, x + off_x : x + off_x + 8]
                predictor8 = self._grid.predictor(bx + (block_index & 1), by + (block_index >> 1), 1)
                result = self._search_block(
                    block, forward, x + off_x, y + off_y, 8, predictor8, seed
                )
                best4.append(result)
                cost4 += result.cost

        use_4mv = cost4 is not None and cost4 < best16.cost
        inter_cost = cost4 if use_4mv else best16.cost

        if self._intra_cost(source, mbx, mby) < inter_cost:
            tables.MB_P_TABLE.write(writer, "intra")
            self._encode_intra_mb(writer, source, recon, mbx, mby)
            self._mark_intra(mbx, mby)
            return

        if use_4mv:
            mvs = [result.mv for result in best4]
            prediction = predict_mb_4mv(
                self.kernels, forward, mbx, mby, mvs, config.search_range
            )
            cbp, all_levels = self._quantise_residual(source, prediction, mbx, mby)
            tables.MB_P_TABLE.write(writer, "inter4v")
            for block_index, mv in enumerate(mvs):
                cell_x = bx + (block_index & 1)
                cell_y = by + (block_index >> 1)
                predictor = self._grid.predictor(cell_x, cell_y, 1)
                write_se(writer, mv.x - predictor.x)
                write_se(writer, mv.y - predictor.y)
                self._grid.set_block(cell_x, cell_y, 1, 1, mv)
            self._write_residual(writer, cbp, all_levels)
            self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)
            self.stats.inter_macroblocks += 1
            return

        mv = best16.mv
        prediction = self._predict_inter(forward, mbx, mby, mv)
        cbp, all_levels = self._quantise_residual(source, prediction, mbx, mby)
        if cbp == 0 and mv == ZERO_MV:
            tables.MB_P_TABLE.write(writer, "skip")
            self._grid.set_block(bx, by, 2, 2, ZERO_MV)
            self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)
            self.stats.skipped_macroblocks += 1
            return
        tables.MB_P_TABLE.write(writer, "inter")
        predictor = self._grid.predictor(bx, by, 2)
        write_se(writer, mv.x - predictor.x)
        write_se(writer, mv.y - predictor.y)
        self._grid.set_block(bx, by, 2, 2, mv)
        self._write_residual(writer, cbp, all_levels)
        self._reconstruct_inter(recon, prediction, all_levels, mbx, mby)
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
        x, y = mbx * 16, mby * 16
        current = source.y[y : y + 16, x : x + 16]

        fwd = self._search_block(current, forward, x, y, 16, self._pmv_fwd, [])
        bwd = self._search_block(current, backward, x, y, 16, self._pmv_bwd, [])

        pred_fwd = self._predict_inter(forward, mbx, mby, fwd.mv)
        pred_bwd = self._predict_inter(backward, mbx, mby, bwd.mv)
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
            self._encode_intra_mb(writer, source, None, mbx, mby)
            self._pmv_fwd = ZERO_MV
            self._pmv_bwd = ZERO_MV
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
        self._write_residual(writer, cbp, all_levels)
        self.stats.inter_macroblocks += 1
