"""VC-1 class encoder.

The second future-work codec of the paper's Section VII.  Toolset:
I/P/B pictures in the shared GOP, quarter-pel bilinear motion compensation
with median MV prediction, MPEG-4-style intra DC/AC prediction, and the
VC-1 signature **adaptive transform size** — each coded inter residual
block is transformed as one 8x8 DCT or four 4x4 integer transforms,
whichever costs fewer bits (see :mod:`repro.codecs.vc1.transform`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codecs.base import EncodedPicture, EncodedVideo, VideoEncoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.mpeg4.acdc import AcDcStore, apply_ac_prediction, predict
from repro.codecs.mpeg4.motion import MvGrid
from repro.codecs.mpeg4.prediction import average_prediction, predict_mb_qpel
from repro.codecs.vc1 import tables
from repro.codecs.vc1.coefficients import encode_run_level, run_level_bits
from repro.codecs.vc1.config import Vc1Config
from repro.codecs.vc1.transform import TransformedBlock, forward_adaptive, inverse_adaptive
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


def _div_to_zero(value: int, divisor: int) -> int:
    return value // divisor if value >= 0 else -((-value) // divisor)


def _int_mv(mv: MotionVector) -> MotionVector:
    return MotionVector(_div_to_zero(mv.x, 4), _div_to_zero(mv.y, 4))


class Vc1Encoder(VideoEncoder):
    """VC-1 class encoder (see module docstring)."""

    codec_name = "vc1"

    def __init__(self, config: Vc1Config) -> None:
        super().__init__(config)
        self.config: Vc1Config = config
        self.kernels = get_kernels(config.backend)
        self.qp264 = h264_qp_from_mpeg(config.qscale)
        self.lagrangian = lambda_from_qp(self.qp264)

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
        writer.write_bit(1 if config.adaptive_transform else 0)

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
    # intra macroblocks (MPEG-4 style DC/AC prediction, 8x8 only)
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
            bits_raw += run_level_bits(raw_scan, start=1)
            bits_pred += run_level_bits(pred_scan, start=1)
            prepared.append((plane, x, y, levels, pred_dc, raw_scan, pred_scan))

        use_prediction = bits_pred < bits_raw
        writer.write_bit(1 if use_prediction else 0)

        cbp = 0
        for block_index, (_, _, _, _, _, raw_scan, pred_scan) in enumerate(prepared):
            scanned = pred_scan if use_prediction else raw_scan
            if any(scanned[1:]):
                cbp |= 1 << (5 - block_index)
        tables.CBP_TABLE.write(writer, cbp)

        for block_index, (plane, x, y, levels, pred_dc, raw_scan, pred_scan) in enumerate(prepared):
            write_se(writer, int(levels[0, 0]) - pred_dc)
            if cbp & (1 << (5 - block_index)):
                scanned = pred_scan if use_prediction else raw_scan
                encode_run_level(writer, scanned, start=1)
            if recon is not None:
                coeffs = kernels.dequant_h263(levels, qscale, intra=True)
                pixels = kernels.add_clip(
                    np.zeros((8, 8), dtype=np.int64), kernels.idct8(coeffs)
                )
                recon.store_block(plane, x, y, pixels)
        self.stats.intra_macroblocks += 1

    # ------------------------------------------------------------------
    # inter machinery
    # ------------------------------------------------------------------

    def _search_luma(self, source: WorkingFrame, reference: WorkingFrame,
                     mbx: int, mby: int, predictor: MotionVector) -> SearchResult:
        config = self.config
        kernels = self.kernels
        x, y = 16 * mbx, 16 * mby
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
            predictor=_int_mv(predictor),
            lagrangian=self.lagrangian,
            search_range=config.search_range,
        )
        extra = [_int_mv(mv) for mv in self._grid.neighbours(2 * mbx, 2 * mby)]
        integer = run_search(config.me_algorithm, cost, extra)
        return refine_subpel(
            kernels, current, padded, x, y, 16, 16,
            integer,
            predictor=predictor,
            lagrangian=self.lagrangian,
            unit=4,
            interp="mc_qpel_bilinear",
        )

    def _transform_residual(
        self, source: WorkingFrame, prediction: Dict[str, np.ndarray],
        mbx: int, mby: int,
    ) -> Tuple[int, List[Optional[TransformedBlock]]]:
        """Adaptive-transform every residual block; returns (cbp, blocks)."""
        kernels = self.kernels
        config = self.config
        cbp = 0
        blocks: List[Optional[TransformedBlock]] = []
        for block_index, (plane, off_x, off_y) in enumerate(tables.BLOCK_LAYOUT):
            if plane == "y":
                x, y = 16 * mbx + off_x, 16 * mby + off_y
                pred_block = prediction["y"][off_y : off_y + 8, off_x : off_x + 8]
            else:
                x, y = 8 * mbx, 8 * mby
                pred_block = prediction[plane]
            residual = kernels.sub(source.plane(plane)[y : y + 8, x : x + 8], pred_block)
            if config.adaptive_transform:
                block = forward_adaptive(kernels, residual, config.qscale, self.qp264)
            else:
                levels = kernels.quant_h263(kernels.fdct8(residual), config.qscale,
                                            intra=False)
                block = TransformedBlock(tables.TRANSFORM_8X8, levels8=levels)
            if block.any_nonzero:
                cbp |= 1 << (5 - block_index)
                blocks.append(block)
            else:
                blocks.append(None)
        return cbp, blocks

    def _write_residual(self, writer: BitWriter, cbp: int,
                        blocks: List[Optional[TransformedBlock]]) -> None:
        from repro.transform.zigzag import scan4

        tables.CBP_TABLE.write(writer, cbp)
        for block in blocks:
            if block is None:
                continue
            if self.config.adaptive_transform:
                writer.write_bit(block.size)
            if block.size == tables.TRANSFORM_8X8:
                encode_run_level(writer, scan8(block.levels8))
            else:
                for levels in block.levels4:
                    encode_run_level(writer, scan4(levels))

    def _reconstruct_inter(
        self,
        recon: Optional[WorkingFrame],
        prediction: Dict[str, np.ndarray],
        blocks: List[Optional[TransformedBlock]],
        mbx: int,
        mby: int,
    ) -> None:
        if recon is None:
            return
        kernels = self.kernels
        for block_index, (plane, off_x, off_y) in enumerate(tables.BLOCK_LAYOUT):
            if plane == "y":
                x, y = 16 * mbx + off_x, 16 * mby + off_y
                pred_block = prediction["y"][off_y : off_y + 8, off_x : off_x + 8]
            else:
                x, y = 8 * mbx, 8 * mby
                pred_block = prediction[plane]
            block = blocks[block_index]
            if block is None:
                pixels = pred_block
            else:
                residual = inverse_adaptive(kernels, block, self.config.qscale, self.qp264)
                pixels = kernels.add_clip(pred_block, residual)
            recon.store_block(plane, x, y, pixels)

    def _predict(self, reference: WorkingFrame, mbx: int, mby: int,
                 mv: MotionVector) -> Dict[str, np.ndarray]:
        return predict_mb_qpel(
            self.kernels, reference, mbx, mby, mv, self.config.search_range
        )

    def _intra_cost(self, source: WorkingFrame, mbx: int, mby: int) -> int:
        block = source.y[16 * mby : 16 * mby + 16, 16 * mbx : 16 * mbx + 16]
        mean = int(np.mean(block) + 0.5)
        flat = np.full((16, 16), mean, dtype=np.int64)
        return self.kernels.sad(block, flat) + INTRA_BIAS

    # ------------------------------------------------------------------
    # P macroblocks
    # ------------------------------------------------------------------

    def _encode_p_mb(self, writer: BitWriter, source: WorkingFrame,
                     recon: WorkingFrame, forward: WorkingFrame,
                     mbx: int, mby: int) -> None:
        bx, by = 2 * mbx, 2 * mby
        predictor = self._grid.predictor(bx, by, 2)
        best = self._search_luma(source, forward, mbx, mby, predictor)
        if self._intra_cost(source, mbx, mby) < best.cost:
            tables.MB_P_TABLE.write(writer, "intra")
            self._encode_intra_mb(writer, source, recon, mbx, mby)
            self._grid.set_block(bx, by, 2, 2, ZERO_MV)
            return
        mv = best.mv
        prediction = self._predict(forward, mbx, mby, mv)
        cbp, blocks = self._transform_residual(source, prediction, mbx, mby)
        if cbp == 0 and mv == ZERO_MV:
            tables.MB_P_TABLE.write(writer, "skip")
            self._grid.set_block(bx, by, 2, 2, ZERO_MV)
            self._reconstruct_inter(recon, prediction, blocks, mbx, mby)
            self.stats.skipped_macroblocks += 1
            return
        tables.MB_P_TABLE.write(writer, "inter")
        current_predictor = self._grid.predictor(bx, by, 2)
        write_se(writer, mv.x - current_predictor.x)
        write_se(writer, mv.y - current_predictor.y)
        self._grid.set_block(bx, by, 2, 2, mv)
        self._write_residual(writer, cbp, blocks)
        self._reconstruct_inter(recon, prediction, blocks, mbx, mby)
        self.stats.inter_macroblocks += 1

    # ------------------------------------------------------------------
    # B macroblocks
    # ------------------------------------------------------------------

    def _encode_b_mb(self, writer: BitWriter, source: WorkingFrame,
                     forward: WorkingFrame, backward: WorkingFrame,
                     mbx: int, mby: int) -> None:
        kernels = self.kernels
        fwd = self._search_luma(source, forward, mbx, mby, self._pmv_fwd)
        bwd = self._search_luma(source, backward, mbx, mby, self._pmv_bwd)
        current = source.y[16 * mby : 16 * mby + 16, 16 * mbx : 16 * mbx + 16]
        pred_fwd = self._predict(forward, mbx, mby, fwd.mv)
        pred_bwd = self._predict(backward, mbx, mby, bwd.mv)
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
        cbp, blocks = self._transform_residual(source, prediction, mbx, mby)

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
        self._write_residual(writer, cbp, blocks)
        self.stats.inter_macroblocks += 1
