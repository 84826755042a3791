"""H.264 class encoder.

Implements the toolset of the paper's x264 application (Table IV command
line): 4x4 integer transform with the standard quantiser tables, Intra_4x4
and Intra_16x16 prediction, variable inter partitions (16x16/16x8/8x16/
8x8), six-tap quarter-pel luma motion compensation, multiple reference
frames, hexagon motion estimation, CAVLC-structured entropy coding and the
in-loop deblocking filter.  These tools are exactly what makes H.264 both
the best compressor and the most expensive codec in the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codecs.base import EncodedPicture, EncodedVideo, VideoEncoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.h264 import common, intra
from repro.codecs.h264.cavlc import CavlcCoder
from repro.codecs.h264.config import H264Config
from repro.codecs.h264.motion import PARTITION_SHAPES, MvGrid4
from repro.common.bitstream import BitWriter
from repro.common.expgolomb import se_bit_length, ue_bit_length, write_se, write_ue
from repro.common.gop import FRAME_TYPE_CODE, CodedFrame, FrameType
from repro.common.yuv import YuvSequence
from repro.errors import CodecError
from repro.kernels import get_kernels
from repro.me.cost import MotionCost, lambda_from_qp
from repro.me.search import run_search
from repro.me.subpel import refine_subpel
from repro.me.types import MotionVector, SearchResult, div_to_zero
from repro.transform.zigzag import ZIGZAG_2X2, scan, scan4, unscan4

INTRA_BIAS = 96


def _int_mv(mv: MotionVector) -> MotionVector:
    return MotionVector(div_to_zero(mv.x, 4), div_to_zero(mv.y, 4))


@dataclass
class _ChromaPrep:
    """Prepared chroma residual of one macroblock."""

    cbp: int  # 0 = none, 1 = DC only, 2 = DC + AC
    dc_levels: Dict[str, np.ndarray] = field(default_factory=dict)
    ac_levels: Dict[str, List[np.ndarray]] = field(default_factory=dict)


class H264Encoder(VideoEncoder):
    """H.264 class encoder (see module docstring)."""

    codec_name = "h264"

    def __init__(self, config: H264Config) -> None:
        super().__init__(config)
        self.config: H264Config = config
        self.kernels = get_kernels(config.backend)
        self.lagrangian = lambda_from_qp(config.qp)
        self.cavlc = CavlcCoder()

    # ------------------------------------------------------------------
    # sequence level
    # ------------------------------------------------------------------

    def encode_sequence(self, video: YuvSequence) -> EncodedVideo:
        self._check_input(video)
        config = self.config
        stream = EncodedVideo(
            codec=self.codec_name,
            width=config.width,
            height=config.height,
            fps=video.fps,
        )
        references: Dict[int, WorkingFrame] = {}
        for entry in self.config.gop.coding_order(len(video)):
            source = WorkingFrame.from_yuv(video[entry.display_index])
            payload, recon = self._encode_picture(entry, source, references)
            stream.pictures.append(EncodedPicture(payload, entry.display_index, entry.frame_type))
            self.stats.frame_bits.append(8 * len(payload))
            if entry.frame_type.is_anchor:
                if config.deblock:
                    self._layer.deblock()
                references[entry.display_index] = recon
                for key in sorted(references)[: -(config.ref_frames + 2)]:
                    del references[key]
        return stream

    def _reference_lists(
        self, references: Dict[int, WorkingFrame], display_index: int,
        frame_type: FrameType,
    ) -> Tuple[List[WorkingFrame], Optional[WorkingFrame]]:
        """(L0 list, L1 reference) for the picture at ``display_index``."""
        past = sorted(key for key in references if key < display_index)
        future = sorted(key for key in references if key > display_index)
        if frame_type is FrameType.P:
            if not past:
                raise CodecError("P picture without past references")
            l0 = [references[key] for key in reversed(past[-self.config.ref_frames :])]
            return l0, None
        if frame_type is FrameType.B:
            if not past or not future:
                raise CodecError("B picture requires surrounding anchors")
            return [references[past[-1]]], references[future[0]]
        return [], None

    # ------------------------------------------------------------------
    # picture level
    # ------------------------------------------------------------------

    def _encode_picture(
        self,
        entry: CodedFrame,
        source: WorkingFrame,
        references: Dict[int, WorkingFrame],
    ) -> Tuple[bytes, WorkingFrame]:
        config = self.config
        writer = BitWriter()
        writer.write_bits(FRAME_TYPE_CODE[entry.frame_type], 2)
        writer.write_bits(config.qp, 6)
        writer.write_bits(config.search_range, 8)
        writer.write_bit(1 if config.deblock else 0)
        writer.write_bits(config.ref_frames, 4)

        l0, l1 = self._reference_lists(references, entry.display_index, entry.frame_type)
        # The active L0 size is signalled explicitly so a decoder whose DPB
        # holds more past anchors than the encoder saw (e.g. after a
        # GOP-parallel chunk boundary) builds the identical list.
        writer.write_bits(len(l0), 4)

        self._layer = layer = common.MacroblockLayer(
            self.kernels, config.width, config.height, config.qp, config.search_range
        )
        for mby in range(config.mb_height):
            for mbx in range(config.mb_width):
                if entry.frame_type is FrameType.I:
                    self._encode_i_mb(writer, source, mbx, mby)
                elif entry.frame_type is FrameType.P:
                    self._encode_p_mb(writer, source, l0, mbx, mby)
                else:
                    self._encode_b_mb(writer, source, l0[0], l1, mbx, mby)
        writer.align()
        return writer.to_bytes(), layer.recon

    # ------------------------------------------------------------------
    # intra coding
    # ------------------------------------------------------------------

    def _encode_i_mb(self, writer: BitWriter, source: WorkingFrame,
                     mbx: int, mby: int) -> None:
        """Choose I4x4 vs I16x16 and code the macroblock (I pictures)."""
        i16_mode, i16_cost = self._best_i16_mode(source, mbx, mby)
        i4_cost_estimate = self._estimate_i4_cost(source, mbx, mby)
        if i4_cost_estimate < i16_cost:
            write_ue(writer, common.I_4X4)
            self._code_i4_mb(writer, source, mbx, mby)
        else:
            write_ue(writer, common.I_16X16)
            self._code_i16_mb(writer, source, mbx, mby, i16_mode)

    def _best_i16_mode(self, source: WorkingFrame, mbx: int, mby: int) -> Tuple[str, int]:
        x, y = 16 * mbx, 16 * mby
        current = source.y[y : y + 16, x : x + 16]
        best_mode, best_cost = "DC", None
        for mode in intra.available_block_modes(y > 0, x > 0):
            prediction = intra.predict_block(self._layer.recon.y, x, y, 16, mode)
            cost = self.kernels.sad(current, prediction)
            if best_cost is None or cost < best_cost:
                best_mode, best_cost = mode, cost
        return best_mode, best_cost

    def _estimate_i4_cost(self, source: WorkingFrame, mbx: int, mby: int) -> int:
        """Cheap I4 cost proxy: per-block best-of-DC/V/H SAD plus mode bits.

        A full I4 evaluation needs sequential reconstruction; this estimate
        predicts every block from the *source* neighbourhood instead, which
        is close enough for the I4-vs-I16 decision.
        """
        total = 4 * self.lagrangian  # mode signalling overhead
        x0, y0 = 16 * mbx, 16 * mby
        for off_x, off_y in common.LUMA_OFFSETS:
            x, y = x0 + off_x, y0 + off_y
            block = source.y[y : y + 4, x : x + 4]
            candidates = []
            if y > 0:
                candidates.append(np.tile(source.y[y - 1, x : x + 4], (4, 1)))
            if x > 0:
                candidates.append(np.tile(source.y[y : y + 4, x - 1].reshape(4, 1), (1, 4)))
            candidates.append(np.full((4, 4), int(np.mean(block)), dtype=np.int64))
            total += min(self.kernels.sad(block, cand) for cand in candidates)
            total += self.lagrangian  # ~1-3 bits of mode per block
        return total

    def _code_i4_mb(self, writer: BitWriter, source: WorkingFrame,
                    mbx: int, mby: int) -> None:
        """Code an I4x4 macroblock: 16 predicted/transformed luma blocks."""
        kernels = self.kernels
        layer = self._layer
        qp = self.config.qp
        x0, y0 = 16 * mbx, 16 * mby
        for off_x, off_y in common.LUMA_OFFSETS:
            x, y = x0 + off_x, y0 + off_y
            bx, by = x // 4, y // 4
            modes = intra.available_luma4_modes(y > 0, x > 0)
            best_mode, best_pred, best_cost = None, None, None
            mpm = common.intra4_mpm(layer.intra4_modes, bx, by)
            for mode in modes:
                prediction = intra.predict_luma4(layer.recon.y, x, y, mode)
                mode_index = intra.LUMA4_MODES.index(mode)
                bits = 1 if mode_index == mpm else 3
                cost = kernels.sad(source.y[y : y + 4, x : x + 4], prediction)
                cost += self.lagrangian * bits
                if best_cost is None or cost < best_cost:
                    best_mode, best_pred, best_cost = mode, prediction, cost
            mode_index = intra.LUMA4_MODES.index(best_mode)
            if mode_index == mpm:
                writer.write_bit(1)
            else:
                writer.write_bit(0)
                remaining = mode_index - (1 if mode_index > mpm else 0)
                writer.write_bits(remaining, 2)
            layer.intra4_modes[(bx, by)] = mode_index

            residual = kernels.sub(source.y[y : y + 4, x : x + 4], best_pred)
            levels = kernels.quant_h264_4x4(kernels.fwd_transform4(residual), qp, intra=True)
            total_coeff = self.cavlc.encode_block(writer, scan4(levels), layer.tc_luma.nc(bx, by))
            layer.tc_luma.set(bx, by, total_coeff)
            layer.reconstruct_luma4(x, y, best_pred, levels if total_coeff else None)
        layer.meta.mark_intra_mb(mbx, mby)
        self._code_intra_chroma(writer, source, mbx, mby)
        self.stats.intra_macroblocks += 1

    def _code_i16_mb(self, writer: BitWriter, source: WorkingFrame,
                     mbx: int, mby: int, mode: str) -> None:
        kernels = self.kernels
        layer = self._layer
        qp = self.config.qp
        x0, y0 = 16 * mbx, 16 * mby
        write_ue(writer, intra.BLOCK_MODES.index(mode))
        prediction = intra.predict_block(layer.recon.y, x0, y0, 16, mode)
        residual = kernels.sub(source.y[y0 : y0 + 16, x0 : x0 + 16], prediction)

        dc = np.zeros((4, 4), dtype=np.int64)
        ac_levels: List[np.ndarray] = []
        for block_index, (off_x, off_y) in enumerate(common.LUMA_OFFSETS):
            coeffs = kernels.fwd_transform4(residual[off_y : off_y + 4, off_x : off_x + 4])
            dc[off_y // 4, off_x // 4] = coeffs[0, 0]
            levels = kernels.quant_h264_4x4(coeffs, qp, intra=True)
            levels[0, 0] = 0
            ac_levels.append(levels)
        dc_levels = kernels.quant_h264_dc4(kernels.hadamard4_forward(dc), qp, intra=True)
        has_ac = any(np.any(levels) for levels in ac_levels)
        writer.write_bit(1 if has_ac else 0)

        nc_dc = layer.tc_luma.nc(4 * mbx, 4 * mby)
        self.cavlc.encode_block(writer, scan4(dc_levels), nc_dc)

        for block_index, (off_x, off_y) in enumerate(common.LUMA_OFFSETS):
            bx, by = (x0 + off_x) // 4, (y0 + off_y) // 4
            total_coeff = 0
            if has_ac:
                total_coeff = self.cavlc.encode_block(
                    writer, scan4(ac_levels[block_index])[1:], layer.tc_luma.nc(bx, by)
                )
            layer.tc_luma.set(bx, by, total_coeff)
        layer.reconstruct_i16(mbx, mby, prediction, dc_levels, ac_levels if has_ac else None)
        layer.meta.mark_intra_mb(mbx, mby)
        self._code_intra_chroma(writer, source, mbx, mby)
        self.stats.intra_macroblocks += 1

    def _code_intra_chroma(self, writer: BitWriter, source: WorkingFrame,
                           mbx: int, mby: int) -> None:
        x, y = 8 * mbx, 8 * mby
        best_mode, best_cost, best_pred = None, None, None
        for mode in intra.available_block_modes(y > 0, x > 0):
            pred_u = intra.predict_block(self._layer.recon.u, x, y, 8, mode)
            pred_v = intra.predict_block(self._layer.recon.v, x, y, 8, mode)
            cost = self.kernels.sad(source.u[y : y + 8, x : x + 8], pred_u)
            cost += self.kernels.sad(source.v[y : y + 8, x : x + 8], pred_v)
            if best_cost is None or cost < best_cost:
                best_mode, best_cost, best_pred = mode, cost, (pred_u, pred_v)
        write_ue(writer, intra.BLOCK_MODES.index(best_mode))
        prediction = dict(zip(("u", "v"), best_pred))
        prep = self._prepare_chroma(source, prediction, mbx, mby, intra_mb=True)
        self._code_chroma(writer, prep, prediction, mbx, mby)

    # ------------------------------------------------------------------
    # chroma residual (shared by every macroblock type)
    # ------------------------------------------------------------------

    def _prepare_chroma(self, source: WorkingFrame, prediction: Dict[str, np.ndarray],
                        mbx: int, mby: int, intra_mb: bool) -> _ChromaPrep:
        kernels = self.kernels
        qp = self.config.qp
        x0, y0 = 8 * mbx, 8 * mby
        prep = _ChromaPrep(cbp=0)
        any_dc = False
        any_ac = False
        for plane in ("u", "v"):
            dc = np.zeros((2, 2), dtype=np.int64)
            plane_levels: List[np.ndarray] = []
            for block_index, (off_x, off_y) in enumerate(common.CHROMA_OFFSETS):
                current = source.plane(plane)[
                    y0 + off_y : y0 + off_y + 4, x0 + off_x : x0 + off_x + 4
                ]
                residual = kernels.sub(current, prediction[plane][off_y : off_y + 4, off_x : off_x + 4])
                coeffs = kernels.fwd_transform4(residual)
                dc[off_y // 4, off_x // 4] = coeffs[0, 0]
                levels = kernels.quant_h264_4x4(coeffs, qp, intra_mb)
                levels[0, 0] = 0
                plane_levels.append(levels)
                if np.any(levels):
                    any_ac = True
            dc_levels = kernels.quant_h264_dc2(kernels.hadamard2(dc), qp, intra_mb)
            if np.any(dc_levels):
                any_dc = True
            prep.dc_levels[plane] = dc_levels
            prep.ac_levels[plane] = plane_levels
        prep.cbp = 2 if any_ac else (1 if any_dc else 0)
        return prep

    def _code_chroma(self, writer: BitWriter, prep: _ChromaPrep,
                     prediction: Dict[str, np.ndarray], mbx: int, mby: int) -> None:
        """Write a macroblock's chroma residual, then reconstruct its chroma."""
        layer = self._layer
        write_ue(writer, prep.cbp)
        if prep.cbp:
            for plane in ("u", "v"):
                self.cavlc.encode_block(writer, scan(prep.dc_levels[plane], ZIGZAG_2X2), 0)
        if prep.cbp < 2:
            layer.clear_chroma_tc(mbx, mby)
        else:
            for plane in ("u", "v"):
                grid = layer.tc_chroma[plane]
                for block_index, (off_x, off_y) in enumerate(common.CHROMA_OFFSETS):
                    bx = (8 * mbx + off_x) // 4
                    by = (8 * mby + off_y) // 4
                    total_coeff = self.cavlc.encode_block(
                        writer, scan4(prep.ac_levels[plane][block_index])[1:], grid.nc(bx, by)
                    )
                    grid.set(bx, by, total_coeff)
        layer.reconstruct_chroma(mbx, mby, prediction, prep.cbp, prep.dc_levels, prep.ac_levels)

    # ------------------------------------------------------------------
    # inter prediction helpers
    # ------------------------------------------------------------------

    def _search_partition(
        self,
        source: WorkingFrame,
        reference: WorkingFrame,
        mbx: int,
        mby: int,
        rect: Tuple[int, int, int, int],
        grid: MvGrid4,
    ) -> SearchResult:
        """Hexagon + quarter-pel search of one partition; MV in qpel units."""
        config = self.config
        kernels = self.kernels
        off_x, off_y, width, height = rect
        x, y = 16 * mbx + off_x, 16 * mby + off_y
        current = source.y[y : y + height, x : x + width]
        predictor = grid.predictor(x // 4, y // 4, width // 4)
        padded = reference.padded("y", config.search_range)
        cost = MotionCost(
            kernels=kernels,
            current=current,
            reference=padded,
            x=x,
            y=y,
            width=width,
            height=height,
            predictor=_int_mv(predictor),
            lagrangian=self.lagrangian,
            search_range=config.search_range,
        )
        extra = [_int_mv(mv) for mv in grid.neighbours(x // 4, y // 4)]
        integer = run_search(config.me_algorithm, cost, extra)
        return refine_subpel(
            kernels, current, padded, x, y, width, height,
            integer,
            predictor=predictor,
            lagrangian=self.lagrangian,
            unit=4,
            interp="mc_qpel_h264",
        )

    # ------------------------------------------------------------------
    # luma residual (inter)
    # ------------------------------------------------------------------

    def _prepare_luma_residual(
        self, source: WorkingFrame, prediction: np.ndarray, mbx: int, mby: int,
    ) -> Tuple[int, List[np.ndarray]]:
        kernels = self.kernels
        qp = self.config.qp
        x0, y0 = 16 * mbx, 16 * mby
        blocks: List[np.ndarray] = []
        cbp = 0
        for block_index, (off_x, off_y) in enumerate(common.LUMA_OFFSETS):
            current = source.y[y0 + off_y : y0 + off_y + 4, x0 + off_x : x0 + off_x + 4]
            residual = kernels.sub(current, prediction[off_y : off_y + 4, off_x : off_x + 4])
            levels = kernels.quant_h264_4x4(kernels.fwd_transform4(residual), qp, intra=False)
            blocks.append(levels)
            if np.any(levels):
                cbp |= 1 << common.luma_quadrant(block_index)
        return cbp, blocks

    def _code_luma_residual(self, writer: BitWriter, cbp: int, blocks: List[np.ndarray],
                            prediction: np.ndarray, mbx: int, mby: int) -> None:
        """Write an inter macroblock's luma residual, then reconstruct its luma."""
        layer = self._layer
        writer.write_bits(cbp, 4)
        coded: Dict[int, np.ndarray] = {}
        for block_index, (off_x, off_y) in enumerate(common.LUMA_OFFSETS):
            bx = (16 * mbx + off_x) // 4
            by = (16 * mby + off_y) // 4
            total_coeff = 0
            if cbp & (1 << common.luma_quadrant(block_index)):
                total_coeff = self.cavlc.encode_block(
                    writer, scan4(blocks[block_index]), layer.tc_luma.nc(bx, by)
                )
                if total_coeff:
                    coded[block_index] = blocks[block_index]
            layer.tc_luma.set(bx, by, total_coeff)
        layer.reconstruct_luma(mbx, mby, prediction, coded)

    # ------------------------------------------------------------------
    # P macroblocks
    # ------------------------------------------------------------------

    def _encode_p_mb(self, writer: BitWriter, source: WorkingFrame,
                     l0: List[WorkingFrame], mbx: int, mby: int) -> None:
        config = self.config
        layer = self._layer
        grid = layer.grid_l0

        # 16x16 search over every reference; keep the best.
        best_ref, best16 = 0, None
        for ref_index, reference in enumerate(l0):
            result = self._search_partition(source, reference, mbx, mby, (0, 0, 16, 16), grid)
            penalised = SearchResult(
                result.mv, result.cost + self.lagrangian * ue_bit_length(ref_index)
            )
            if best16 is None or penalised.cost < best16.cost:
                best_ref, best16 = ref_index, penalised

        # Other partition shapes on the best reference.
        reference = l0[best_ref]
        shape_results: Dict[str, List[SearchResult]] = {"16x16": [best16]}
        shape_costs: Dict[str, int] = {
            "16x16": best16.cost + self.lagrangian * ue_bit_length(common.P_16X16)
        }
        for shape in config.partitions:
            if shape == "16x16":
                continue
            results = [
                self._search_partition(source, reference, mbx, mby, rect, grid)
                for rect in PARTITION_SHAPES[shape]
            ]
            shape_results[shape] = results
            shape_costs[shape] = (
                sum(result.cost for result in results)
                + self.lagrangian * ue_bit_length(common.P_MODE_FOR_SHAPE[shape])
                + self.lagrangian * ue_bit_length(best_ref) * len(results)
            )
        best_shape = min(shape_costs, key=shape_costs.get)

        intra_cost = self._quick_intra_cost(source, mbx, mby)
        if intra_cost < shape_costs[best_shape]:
            self._encode_intra_in_inter(writer, source, mbx, mby, is_b=False)
            return

        rects = PARTITION_SHAPES[best_shape]
        assignments = [
            (reference, rect, result.mv)
            for rect, result in zip(rects, shape_results[best_shape])
        ]
        prediction = layer.prediction(mbx, mby, assignments)
        cbp_luma, luma_blocks = self._prepare_luma_residual(source, prediction["y"], mbx, mby)
        chroma_prep = self._prepare_chroma(source, prediction, mbx, mby, intra_mb=False)

        # Skip: 16x16, first reference, predicted MV, no residual anywhere.
        if (
            best_shape == "16x16"
            and best_ref == 0
            and cbp_luma == 0
            and chroma_prep.cbp == 0
            and assignments[0][2] == grid.predictor(4 * mbx, 4 * mby, 4)
        ):
            write_ue(writer, common.P_SKIP)
            layer.skip(mbx, mby, assignments[0][2], prediction)
            self.stats.skipped_macroblocks += 1
            return

        write_ue(writer, common.P_MODE_FOR_SHAPE[best_shape])
        for rect, result in zip(rects, shape_results[best_shape]):
            off_x, off_y, width, height = rect
            bx, by = (16 * mbx + off_x) // 4, (16 * mby + off_y) // 4
            if len(l0) > 1:
                write_ue(writer, best_ref)
            predictor = grid.predictor(bx, by, width // 4)
            write_se(writer, result.mv.x - predictor.x)
            write_se(writer, result.mv.y - predictor.y)
            grid.set_rect(bx, by, width // 4, height // 4, result.mv, best_ref)
            layer.meta.mark_inter(bx, by, width // 4, height // 4, result.mv, best_ref)
        self._code_luma_residual(writer, cbp_luma, luma_blocks, prediction["y"], mbx, mby)
        self._code_chroma(writer, chroma_prep, prediction, mbx, mby)
        self.stats.inter_macroblocks += 1

    def _quick_intra_cost(self, source: WorkingFrame, mbx: int, mby: int) -> int:
        _, cost = self._best_i16_mode(source, mbx, mby)
        return cost + INTRA_BIAS + self.lagrangian * 8

    def _encode_intra_in_inter(self, writer: BitWriter, source: WorkingFrame,
                               mbx: int, mby: int, is_b: bool) -> None:
        """Code an intra MB inside a P/B picture (mode + payload)."""
        i16_mode, i16_cost = self._best_i16_mode(source, mbx, mby)
        i4_cost = self._estimate_i4_cost(source, mbx, mby)
        if i4_cost < i16_cost:
            write_ue(writer, common.B_I4 if is_b else common.P_I4)
            self._code_i4_mb(writer, source, mbx, mby)
        else:
            write_ue(writer, common.B_I16 if is_b else common.P_I16)
            self._code_i16_mb(writer, source, mbx, mby, i16_mode)

    # ------------------------------------------------------------------
    # B macroblocks
    # ------------------------------------------------------------------

    def _encode_b_mb(self, writer: BitWriter, source: WorkingFrame,
                     forward: WorkingFrame, backward: WorkingFrame,
                     mbx: int, mby: int) -> None:
        kernels = self.kernels
        layer = self._layer
        rect = (0, 0, 16, 16)
        fwd = self._search_partition(source, forward, mbx, mby, rect, layer.grid_l0)
        bwd = self._search_partition(source, backward, mbx, mby, rect, layer.grid_l1)

        pred_fwd = layer.prediction(mbx, mby, [(forward, rect, fwd.mv)])
        pred_bwd = layer.prediction(mbx, mby, [(backward, rect, bwd.mv)])
        bx, by = 4 * mbx, 4 * mby
        pred_l0 = layer.grid_l0.predictor(bx, by, 4)
        pred_l1 = layer.grid_l1.predictor(bx, by, 4)
        current = source.y[16 * mby : 16 * mby + 16, 16 * mbx : 16 * mbx + 16]
        bi_luma = kernels.average(pred_fwd["y"], pred_bwd["y"])
        bi_rate = (
            se_bit_length(fwd.mv.x - pred_l0.x)
            + se_bit_length(fwd.mv.y - pred_l0.y)
            + se_bit_length(bwd.mv.x - pred_l1.x)
            + se_bit_length(bwd.mv.y - pred_l1.y)
        )
        bi_cost = kernels.sad(current, bi_luma) + self.lagrangian * bi_rate
        mode_costs = {"fwd": fwd.cost, "bwd": bwd.cost, "bi": bi_cost}
        mode = min(mode_costs, key=mode_costs.get)

        if self._quick_intra_cost(source, mbx, mby) < mode_costs[mode]:
            self._encode_intra_in_inter(writer, source, mbx, mby, is_b=True)
            return

        if mode == "fwd":
            prediction = pred_fwd
        elif mode == "bwd":
            prediction = pred_bwd
        else:
            prediction = layer.average(pred_fwd, pred_bwd)
        cbp_luma, luma_blocks = self._prepare_luma_residual(source, prediction["y"], mbx, mby)
        chroma_prep = self._prepare_chroma(source, prediction, mbx, mby, intra_mb=False)

        if mode == "fwd" and cbp_luma == 0 and chroma_prep.cbp == 0 and fwd.mv == pred_l0:
            write_ue(writer, common.B_SKIP)
            layer.skip(mbx, mby, fwd.mv, prediction)
            self.stats.skipped_macroblocks += 1
            return

        code = {"bi": common.B_BI, "fwd": common.B_FWD, "bwd": common.B_BWD}[mode]
        write_ue(writer, code)
        deblock_mv = fwd.mv if mode in ("fwd", "bi") else bwd.mv
        if mode in ("fwd", "bi"):
            write_se(writer, fwd.mv.x - pred_l0.x)
            write_se(writer, fwd.mv.y - pred_l0.y)
            layer.grid_l0.set_rect(bx, by, 4, 4, fwd.mv, 0)
        if mode in ("bwd", "bi"):
            write_se(writer, bwd.mv.x - pred_l1.x)
            write_se(writer, bwd.mv.y - pred_l1.y)
            layer.grid_l1.set_rect(bx, by, 4, 4, bwd.mv, 0)
        layer.meta.mark_inter(bx, by, 4, 4, deblock_mv, 0 if mode != "bwd" else 1)
        self._code_luma_residual(writer, cbp_luma, luma_blocks, prediction["y"], mbx, mby)
        self._code_chroma(writer, chroma_prep, prediction, mbx, mby)
        self.stats.inter_macroblocks += 1
