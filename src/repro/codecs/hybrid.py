"""The hybrid codec skeleton MPEG-2, MPEG-4 ASP and VC-1 share.

The three codecs are one design with different tools: I/P/B pictures in
the shared GOP, 16x16 macroblocks of six 8x8 blocks, motion-compensated
prediction from the two nearest anchors and a transformed, quantised
residual.  This module holds that design once: the sequence loop, the
picture loop, the P and B macroblock decisions, the intra cost, luma
motion search, macroblock prediction and inter reconstruction, for one
encoder base class and one decoder base class.

A codec subclass supplies what differs: its picture-header tool bits,
VLC tables and coefficient coders, its quantiser pair, its intra
macroblock and, where it does not predict a P vector from the previous
vector of its row, its P-vector prediction.  The motion vector unit
(2 = half-pel, 4 = quarter-pel) picks the luma interpolation kernel of
both motion search and prediction.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codecs.base import (
    CodecConfig,
    EncodedPicture,
    EncodedVideo,
    VideoDecoder,
    VideoEncoder,
)
from repro.codecs.frames import PLANE_NAMES, WorkingFrame
from repro.common.bitstream import BitReader, BitWriter
from repro.common.expgolomb import read_se, se_bit_length, write_se
from repro.common.gop import FRAME_TYPE_CODE, CodedFrame, FrameType
from repro.common.yuv import YuvSequence
from repro.errors import CodecError
from repro.kernels import get_kernels
from repro.mc.chroma import chroma_mv_from_halfpel, chroma_mv_from_qpel
from repro.me.cost import MotionCost, lambda_from_qp
from repro.me.search import run_search
from repro.me.subpel import refine_subpel
from repro.me.types import MotionVector, SearchResult, ZERO_MV, div_to_zero
from repro.robustness.guard import check_header, check_motion_vector, read_frame_type
from repro.transform.qp import h264_qp_from_mpeg, validate_mpeg_qscale

#: Fixed-cost bias (in SAD units) that inter prediction must beat before a
#: macroblock falls back to intra coding, as in FFmpeg's mb decision.
INTRA_BIAS = 128

#: The six 8x8 blocks of a macroblock: (plane, the macroblock's size in
#: that plane, x offset, y offset).  Block (plane, size, off_x, off_y) of
#: macroblock (mbx, mby) starts at (mbx * size + off_x, mby * size + off_y).
BLOCK_LAYOUT: Tuple[Tuple[str, int, int, int], ...] = (
    ("y", 16, 0, 0),
    ("y", 16, 8, 0),
    ("y", 16, 0, 8),
    ("y", 16, 8, 8),
    ("u", 8, 0, 0),
    ("v", 8, 0, 0),
)

#: Luma interpolation kernel per motion vector unit (fractions per pel).
LUMA_INTERP: Dict[int, str] = {2: "mc_halfpel", 4: "mc_qpel_bilinear"}

#: A coded residual block in its codec's own form: an 8x8 level array, or
#: VC-1's block tagged with its transform size.
Block = Any

#: Motion-compensated prediction of one macroblock, per plane.
Prediction = Dict[str, np.ndarray]


def cbp_bit(block_index: int) -> int:
    """Coded block pattern bit of a block (Y0 Y1 Y2 Y3 U V, MSB first)."""
    return 1 << (5 - block_index)


def block_grid(plane: str, mbx: int, mby: int, block_index: int) -> Tuple[int, int]:
    """Position of a macroblock's block on its plane's grid of 8x8 blocks."""
    if plane == "y":
        return 2 * mbx + (block_index & 1), 2 * mby + (block_index >> 1)
    return mbx, mby


def int_mv(mv: MotionVector, unit: int) -> MotionVector:
    """``mv`` (in ``unit`` fractions of a pel) in whole pels, toward zero."""
    return MotionVector(div_to_zero(mv.x, unit), div_to_zero(mv.y, unit))


def intra_block(kernels: Any, coeffs: np.ndarray) -> np.ndarray:
    """Pixels of an intra block from its dequantised coefficients."""
    return kernels.add_clip(np.zeros((8, 8), dtype=np.int64), kernels.idct8(coeffs))


def predict_mb(
    kernels: Any,
    reference: WorkingFrame,
    mbx: int,
    mby: int,
    mv: MotionVector,
    search_range: int,
    unit: int,
) -> Prediction:
    """One-vector prediction of a macroblock: luma at 1/``unit`` pel, chroma
    at half pel."""
    check_motion_vector(mv, search_range, unit)
    luma = reference.padded("y", search_range)
    px, py = luma.offset(mbx * 16, mby * 16)
    interpolate = getattr(kernels, LUMA_INTERP[unit])
    prediction = {"y": interpolate(luma.plane, px, py, 16, 16, mv.x, mv.y)}
    cmv = chroma_mv_from_halfpel(mv) if unit == 2 else chroma_mv_from_qpel(mv)
    for plane in ("u", "v"):
        padded = reference.padded(plane, search_range)
        cx, cy = padded.offset(mbx * 8, mby * 8)
        prediction[plane] = kernels.mc_halfpel(padded.plane, cx, cy, 8, 8, cmv.x, cmv.y)
    return prediction


def average_prediction(kernels: Any, forward: Prediction, backward: Prediction) -> Prediction:
    """Bi-directional prediction: rounded average of both directions."""
    return {name: kernels.average(forward[name], backward[name]) for name in PLANE_NAMES}


def reconstruct_inter(
    kernels: Any,
    recon: WorkingFrame,
    prediction: Prediction,
    blocks: Sequence[Optional[Block]],
    mbx: int,
    mby: int,
    dequantise: Callable[[Block], np.ndarray],
) -> None:
    """Store prediction plus decoded residual for each block of an inter
    macroblock; a block without residual stores its prediction."""
    for block, (plane, size, off_x, off_y) in zip(blocks, BLOCK_LAYOUT):
        x, y = mbx * size + off_x, mby * size + off_y
        pixels = prediction[plane][off_y : off_y + 8, off_x : off_x + 8]
        if block is not None:
            pixels = kernels.add_clip(pixels, dequantise(block))
        recon.store_block(plane, x, y, pixels)


@dataclass(frozen=True)
class HybridConfig(CodecConfig):
    """Settings every hybrid codec has: ``qscale``, the constant quantiser
    scale on the MPEG 1..31 scale."""

    qscale: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_mpeg_qscale(self.qscale)


class HybridEncoder(VideoEncoder):
    """Encoder skeleton of the hybrid codecs (see module docstring).

    A subclass sets ``codec_name``, ``tables`` (its module of
    ``MB_P_TABLE``, ``MB_B_TABLE`` and ``CBP_TABLE``) and ``unit``, and
    implements the abstract hooks.  By default a P vector is predicted from
    the previous vector of its row, as B vectors are, and motion search
    gets no spatial candidates.
    """

    config: HybridConfig
    tables: ModuleType
    #: Motion vector fractions per pel: 2 (half-pel) or 4 (quarter-pel).
    unit: int

    def __init__(self, config: HybridConfig) -> None:
        super().__init__(config)
        self.kernels: Any = get_kernels(config.backend)
        #: The quantiser scale as an H.264 QP (Equation 1 of the paper).
        self.qp264 = h264_qp_from_mpeg(config.qscale)
        self.lagrangian = lambda_from_qp(self.qp264)

    # ------------------------------------------------------------------
    # sequence and picture level
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

    def _encode_picture(
        self,
        entry: CodedFrame,
        source: WorkingFrame,
        forward: Any,
        backward: Any,
    ) -> Tuple[bytes, Optional[WorkingFrame]]:
        """Code one picture; returns its payload and, for an anchor, its
        reconstruction.  ``forward`` and ``backward`` are the references
        the picture type takes (``encode_sequence`` checked them), else None."""
        config = self.config
        writer = BitWriter()
        writer.write_bits(FRAME_TYPE_CODE[entry.frame_type], 2)
        writer.write_bits(config.qscale, 5)
        writer.write_bits(config.search_range, 8)
        self._write_tools(writer)

        recon: Any = None
        if entry.frame_type.is_anchor:
            recon = WorkingFrame.blank(config.width, config.height)
        self._reset_picture_state(entry.frame_type, config.mb_width, config.mb_height)
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
    # codec hooks
    # ------------------------------------------------------------------

    def _write_tools(self, writer: BitWriter) -> None:
        """Write the codec's tool switches after the common picture header."""

    @abc.abstractmethod
    def _reset_picture_state(self, frame_type: FrameType, mb_width: int, mb_height: int) -> None:
        """Start the per-picture prediction state of a picture."""

    @abc.abstractmethod
    def _encode_intra_mb(self, writer: BitWriter, source: WorkingFrame,
                         recon: Optional[WorkingFrame], mbx: int, mby: int) -> None:
        """Code an intra macroblock, reconstructing it into ``recon`` if given."""

    @abc.abstractmethod
    def _quantise_inter(self, residual: np.ndarray) -> Optional[Block]:
        """Transform and quantise one 8x8 inter residual; None when all zero."""

    @abc.abstractmethod
    def _dequantise_inter(self, block: Block) -> np.ndarray:
        """The 8x8 residual a coded inter block decodes to."""

    @abc.abstractmethod
    def _write_block(self, writer: BitWriter, block: Block) -> None:
        """Code the coefficients of one coded inter block."""

    def _p_predictor(self, mbx: int, mby: int) -> MotionVector:
        """The vector a P macroblock's vector is coded against."""
        return self._pmv_fwd

    def _set_p_mv(self, mbx: int, mby: int, mv: MotionVector) -> None:
        """Record a P macroblock's vector (zero for intra and skipped ones)."""
        self._pmv_fwd = mv
        self._record_mv(mbx, mby, mv)

    def _candidates(self, mbx: int, mby: int) -> List[MotionVector]:
        """Whole-pel spatial candidates for the motion search of a macroblock."""
        return []

    def _record_mv(self, mbx: int, mby: int, mv: MotionVector) -> None:
        """Keep a coded vector as a search candidate for later macroblocks."""

    # ------------------------------------------------------------------
    # shared macroblock machinery
    # ------------------------------------------------------------------

    def _intra_cost(self, source: WorkingFrame, mbx: int, mby: int) -> int:
        block = source.y[mby * 16 : mby * 16 + 16, mbx * 16 : mbx * 16 + 16]
        mean = int(np.mean(block) + 0.5)
        flat = np.full((16, 16), mean, dtype=np.int64)
        return self.kernels.sad(block, flat) + INTRA_BIAS

    def _search(
        self,
        current: np.ndarray,
        reference: WorkingFrame,
        x: int,
        y: int,
        size: int,
        pmv: MotionVector,
        candidates: Sequence[MotionVector],
    ) -> SearchResult:
        """Integer search + sub-pel refinement of a square luma block; the
        result vector is in ``unit`` fractions of a pel."""
        config = self.config
        padded = reference.padded("y", config.search_range)
        cost = MotionCost(
            kernels=self.kernels,
            current=current,
            reference=padded,
            x=x,
            y=y,
            width=size,
            height=size,
            predictor=int_mv(pmv, self.unit),
            lagrangian=self.lagrangian,
            search_range=config.search_range,
        )
        integer = run_search(config.me_algorithm, cost, candidates)
        return refine_subpel(
            self.kernels, current, padded, x, y, size, size,
            integer,
            predictor=pmv,
            lagrangian=self.lagrangian,
            unit=self.unit,
            interp=LUMA_INTERP[self.unit],
        )

    def _predict(self, reference: WorkingFrame, mbx: int, mby: int,
                 mv: MotionVector) -> Prediction:
        return predict_mb(self.kernels, reference, mbx, mby, mv,
                          self.config.search_range, self.unit)

    def _quantise_residual(self, source: WorkingFrame, prediction: Prediction,
                           mbx: int, mby: int) -> Tuple[int, List[Optional[Block]]]:
        """Transform/quantise the 6 residual blocks; returns (cbp, blocks)."""
        cbp = 0
        blocks: List[Optional[Block]] = []
        for block_index, (plane, size, off_x, off_y) in enumerate(BLOCK_LAYOUT):
            x, y = mbx * size + off_x, mby * size + off_y
            pred_block = prediction[plane][off_y : off_y + 8, off_x : off_x + 8]
            residual = self.kernels.sub(source.plane(plane)[y : y + 8, x : x + 8], pred_block)
            block = self._quantise_inter(residual)
            if block is not None:
                cbp |= cbp_bit(block_index)
            blocks.append(block)
        return cbp, blocks

    def _write_residual(self, writer: BitWriter, cbp: int,
                        blocks: Sequence[Optional[Block]]) -> None:
        self.tables.CBP_TABLE.write(writer, cbp)
        for block in blocks:
            if block is not None:
                self._write_block(writer, block)

    def _write_mvd(self, writer: BitWriter, mv: MotionVector, pmv: MotionVector) -> None:
        write_se(writer, mv.x - pmv.x)
        write_se(writer, mv.y - pmv.y)

    # ------------------------------------------------------------------
    # P macroblocks
    # ------------------------------------------------------------------

    def _encode_p_mb(self, writer: BitWriter, source: WorkingFrame,
                     recon: WorkingFrame, forward: WorkingFrame,
                     mbx: int, mby: int) -> None:
        x, y = 16 * mbx, 16 * mby
        pmv = self._p_predictor(mbx, mby)
        best = self._search(source.y[y : y + 16, x : x + 16], forward, x, y, 16,
                            pmv, self._candidates(mbx, mby))
        self._encode_p_inter(writer, source, recon, forward, mbx, mby, pmv, best)

    def _encode_p_inter(self, writer: BitWriter, source: WorkingFrame,
                        recon: WorkingFrame, forward: WorkingFrame, mbx: int,
                        mby: int, pmv: MotionVector, best: SearchResult) -> None:
        """Code a P macroblock as intra, skipped or with the one vector of ``best``."""
        if self._intra_cost(source, mbx, mby) < best.cost:
            self._encode_p_intra(writer, source, recon, mbx, mby)
            return
        mv = best.mv
        prediction = self._predict(forward, mbx, mby, mv)
        cbp, blocks = self._quantise_residual(source, prediction, mbx, mby)
        if cbp == 0 and mv == ZERO_MV:
            self.tables.MB_P_TABLE.write(writer, "skip")
            self._set_p_mv(mbx, mby, ZERO_MV)
            reconstruct_inter(self.kernels, recon, prediction, blocks, mbx, mby,
                              self._dequantise_inter)
            self.stats.skipped_macroblocks += 1
            return
        self.tables.MB_P_TABLE.write(writer, "inter")
        self._write_mvd(writer, mv, pmv)
        self._set_p_mv(mbx, mby, mv)
        self._write_residual(writer, cbp, blocks)
        reconstruct_inter(self.kernels, recon, prediction, blocks, mbx, mby,
                          self._dequantise_inter)
        self.stats.inter_macroblocks += 1

    def _encode_p_intra(self, writer: BitWriter, source: WorkingFrame,
                        recon: WorkingFrame, mbx: int, mby: int) -> None:
        self.tables.MB_P_TABLE.write(writer, "intra")
        self._encode_intra_mb(writer, source, recon, mbx, mby)
        self._set_p_mv(mbx, mby, ZERO_MV)

    # ------------------------------------------------------------------
    # B macroblocks
    # ------------------------------------------------------------------

    def _encode_b_mb(self, writer: BitWriter, source: WorkingFrame,
                     forward: WorkingFrame, backward: WorkingFrame,
                     mbx: int, mby: int) -> None:
        kernels = self.kernels
        x, y = 16 * mbx, 16 * mby
        current = source.y[y : y + 16, x : x + 16]
        candidates = self._candidates(mbx, mby)
        fwd = self._search(current, forward, x, y, 16, self._pmv_fwd, candidates)
        bwd = self._search(current, backward, x, y, 16, self._pmv_bwd, candidates)

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
        mode = min(mode_costs, key=mode_costs.__getitem__)
        if self._intra_cost(source, mbx, mby) < mode_costs[mode]:
            self.tables.MB_B_TABLE.write(writer, "intra")
            self._encode_intra_mb(writer, source, None, mbx, mby)
            self._pmv_fwd = ZERO_MV
            self._pmv_bwd = ZERO_MV
            self._record_mv(mbx, mby, ZERO_MV)
            return

        if mode == "fwd":
            prediction = pred_fwd
        elif mode == "bwd":
            prediction = pred_bwd
        else:
            prediction = average_prediction(kernels, pred_fwd, pred_bwd)
        cbp, blocks = self._quantise_residual(source, prediction, mbx, mby)

        if mode == "fwd" and cbp == 0 and fwd.mv == self._pmv_fwd:
            self.tables.MB_B_TABLE.write(writer, "skip")
            self._record_mv(mbx, mby, fwd.mv)
            self.stats.skipped_macroblocks += 1
            return

        self.tables.MB_B_TABLE.write(writer, mode)
        if mode in ("fwd", "bi"):
            self._write_mvd(writer, fwd.mv, self._pmv_fwd)
            self._pmv_fwd = fwd.mv
        if mode in ("bwd", "bi"):
            self._write_mvd(writer, bwd.mv, self._pmv_bwd)
            self._pmv_bwd = bwd.mv
        self._record_mv(mbx, mby, fwd.mv if mode in ("fwd", "bi") else bwd.mv)
        self._write_residual(writer, cbp, blocks)
        self.stats.inter_macroblocks += 1


class HybridDecoder(VideoDecoder):
    """Decoder skeleton of the hybrid codecs: the bit-exact inverse of
    :class:`HybridEncoder`, with the same subclass contract."""

    tables: ModuleType
    #: Motion vector fractions per pel: 2 (half-pel) or 4 (quarter-pel).
    unit: int

    def __init__(self, backend: str = "simd") -> None:
        self.kernels: Any = get_kernels(backend)

    def decode_picture(
        self,
        stream: EncodedVideo,
        picture: EncodedPicture,
        references: Dict[int, Any],
    ) -> WorkingFrame:
        reader = self._open_reader(picture.payload)
        frame_type = read_frame_type(reader, expected=picture.frame_type)
        self._qscale = check_header("qscale", reader.read_bits(5), 1, 31)
        self._search_range = check_header("search_range", reader.read_bits(8), 1, 255)
        self._read_tools(reader)

        ordered = sorted(references)
        forward: Any = None
        backward: Any = None
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
        self._reset_picture_state(frame_type, mb_width, mb_height)
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
    # codec hooks
    # ------------------------------------------------------------------

    def _read_tools(self, reader: BitReader) -> None:
        """Read the codec's tool switches after the common picture header."""

    @abc.abstractmethod
    def _reset_picture_state(self, frame_type: FrameType, mb_width: int, mb_height: int) -> None:
        """Start the per-picture prediction state of a picture."""

    @abc.abstractmethod
    def _decode_intra_mb(self, reader: BitReader, recon: WorkingFrame,
                         mbx: int, mby: int) -> None:
        """Decode an intra macroblock into ``recon``."""

    @abc.abstractmethod
    def _read_block(self, reader: BitReader) -> Block:
        """Parse the coefficients of one coded inter block."""

    @abc.abstractmethod
    def _dequantise_inter(self, block: Block) -> np.ndarray:
        """The 8x8 residual a coded inter block decodes to."""

    def _p_predictor(self, mbx: int, mby: int) -> MotionVector:
        """The vector a P macroblock's vector is coded against."""
        return self._pmv_fwd

    def _set_p_mv(self, mbx: int, mby: int, mv: MotionVector) -> None:
        """Record a P macroblock's vector (zero for intra and skipped ones)."""
        self._pmv_fwd = mv

    # ------------------------------------------------------------------
    # shared macroblock machinery
    # ------------------------------------------------------------------

    def _predict(self, reference: WorkingFrame, mbx: int, mby: int,
                 mv: MotionVector) -> Prediction:
        return predict_mb(self.kernels, reference, mbx, mby, mv,
                          self._search_range, self.unit)

    def _read_residual(self, reader: BitReader) -> List[Optional[Block]]:
        cbp = self.tables.CBP_TABLE.read(reader)
        return [self._read_block(reader) if cbp & cbp_bit(block_index) else None
                for block_index in range(6)]

    def _read_mv(self, reader: BitReader, pmv: MotionVector) -> MotionVector:
        return MotionVector(pmv.x + read_se(reader), pmv.y + read_se(reader))

    def _decode_p_mb(self, reader: BitReader, recon: WorkingFrame,
                     forward: WorkingFrame, mbx: int, mby: int) -> None:
        mode = self.tables.MB_P_TABLE.read(reader)
        if mode == "intra":
            self._decode_intra_mb(reader, recon, mbx, mby)
            self._set_p_mv(mbx, mby, ZERO_MV)
            return
        if mode == "skip":
            self._set_p_mv(mbx, mby, ZERO_MV)
            prediction = self._predict(forward, mbx, mby, ZERO_MV)
            reconstruct_inter(self.kernels, recon, prediction, [None] * 6, mbx, mby,
                              self._dequantise_inter)
            return
        self._decode_p_inter(reader, recon, forward, mbx, mby, mode)

    def _decode_p_inter(self, reader: BitReader, recon: WorkingFrame,
                        forward: WorkingFrame, mbx: int, mby: int, mode: str) -> None:
        """Decode a coded P macroblock of P mode ``mode``: here the one-vector
        ``inter`` mode, the only one every codec has."""
        mv = self._read_mv(reader, self._p_predictor(mbx, mby))
        self._set_p_mv(mbx, mby, mv)
        blocks = self._read_residual(reader)
        prediction = self._predict(forward, mbx, mby, mv)
        reconstruct_inter(self.kernels, recon, prediction, blocks, mbx, mby,
                          self._dequantise_inter)

    def _decode_b_mb(self, reader: BitReader, recon: WorkingFrame,
                     forward: WorkingFrame, backward: WorkingFrame,
                     mbx: int, mby: int) -> None:
        mode = self.tables.MB_B_TABLE.read(reader)
        if mode == "intra":
            self._decode_intra_mb(reader, recon, mbx, mby)
            self._pmv_fwd = ZERO_MV
            self._pmv_bwd = ZERO_MV
            return
        if mode == "skip":
            prediction = self._predict(forward, mbx, mby, self._pmv_fwd)
            reconstruct_inter(self.kernels, recon, prediction, [None] * 6, mbx, mby,
                              self._dequantise_inter)
            return
        if mode in ("fwd", "bi"):
            self._pmv_fwd = self._read_mv(reader, self._pmv_fwd)
        if mode in ("bwd", "bi"):
            self._pmv_bwd = self._read_mv(reader, self._pmv_bwd)
        blocks = self._read_residual(reader)
        if mode == "fwd":
            prediction = self._predict(forward, mbx, mby, self._pmv_fwd)
        elif mode == "bwd":
            prediction = self._predict(backward, mbx, mby, self._pmv_bwd)
        else:
            prediction = average_prediction(
                self.kernels,
                self._predict(forward, mbx, mby, self._pmv_fwd),
                self._predict(backward, mbx, mby, self._pmv_bwd),
            )
        reconstruct_inter(self.kernels, recon, prediction, blocks, mbx, mby,
                          self._dequantise_inter)
