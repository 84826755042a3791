"""MPEG-4 intra AC/DC prediction.

Intra blocks predict their quantised DC level — and optionally the first
row/column of AC levels — from the left or top neighbour block.  The
direction is chosen per block with the standard gradient rule: compare the
DC levels of the left (A), above-left (B) and above (C) neighbours; if
``|dcA - dcB| < |dcB - dcC|`` predict vertically from C, else horizontally
from A.  Both sides derive the direction from decoded DC values only, so
encoder and decoder always agree.

:class:`AcDcEncoder` and :class:`AcDcDecoder` are the hybrid codec
classes of the MPEG-4 toolset VC-1 shares: these intra macroblocks, and
P-picture vectors coded against the median of an 8x8-granular grid
(:class:`~repro.codecs.mpeg4.motion.MvGrid`), whose neighbours also seed
the motion search.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codecs.frames import PLANE_NAMES, WorkingFrame
from repro.codecs.hybrid import (
    BLOCK_LAYOUT,
    HybridDecoder,
    HybridEncoder,
    block_grid,
    cbp_bit,
    int_mv,
    intra_block,
)
from repro.codecs.mpeg4.motion import MvGrid
from repro.codecs.mpeg4.tables import DC_DEFAULT
from repro.common.bitstream import BitReader, BitWriter
from repro.common.expgolomb import read_se, write_se
from repro.common.gop import FrameType
from repro.me.types import MotionVector
from repro.transform.zigzag import scan8, unscan8

VERTICAL = "vertical"
HORIZONTAL = "horizontal"

#: Number of predicted AC coefficients along a row/column.
AC_COUNT = 7


@dataclass
class BlockAcDc:
    """Stored prediction context of one intra block (raw, unpredicted)."""

    dc: int
    row: List[int]  # levels[0][1..7]
    col: List[int]  # levels[1..7][0]


class AcDcStore:
    """Per-picture, per-plane store of intra block prediction contexts."""

    def __init__(self) -> None:
        self._blocks: Dict[Tuple[int, int], BlockAcDc] = {}

    def get(self, bx: int, by: int) -> Optional[BlockAcDc]:
        if bx < 0 or by < 0:
            return None
        return self._blocks.get((bx, by))

    def put(self, bx: int, by: int, levels: np.ndarray) -> None:
        """Record the raw levels of the intra block at grid (bx, by)."""
        rows = levels.tolist()
        self._blocks[(bx, by)] = BlockAcDc(
            dc=int(rows[0][0]),
            row=[int(rows[0][j]) for j in range(1, 8)],
            col=[int(rows[i][0]) for i in range(1, 8)],
        )


def predict(store: AcDcStore, bx: int, by: int) -> Tuple[str, int, List[int]]:
    """Prediction for block (bx, by): (direction, dc, ac_levels)."""
    a = store.get(bx - 1, by)
    b = store.get(bx - 1, by - 1)
    c = store.get(bx, by - 1)
    dc_a = a.dc if a else DC_DEFAULT
    dc_b = b.dc if b else DC_DEFAULT
    dc_c = c.dc if c else DC_DEFAULT
    if abs(dc_a - dc_b) < abs(dc_b - dc_c):
        ac = c.row if c else [0] * AC_COUNT
        return VERTICAL, dc_c, list(ac)
    ac = a.col if a else [0] * AC_COUNT
    return HORIZONTAL, dc_a, list(ac)


def apply_ac_prediction(levels: np.ndarray, direction: str,
                        predicted: List[int], sign: int) -> np.ndarray:
    """Add (sign=+1) or subtract (sign=-1) the predicted AC coefficients."""
    adjusted = levels.copy()
    if direction == VERTICAL:
        for j in range(1, 8):
            adjusted[0, j] += sign * predicted[j - 1]
    else:
        for i in range(1, 8):
            adjusted[i, 0] += sign * predicted[i - 1]
    return adjusted


class AcDcEncoder(HybridEncoder):
    """Hybrid encoder with AC/DC-predicted intra macroblocks and median
    P-vector prediction; a subclass supplies the intra AC coder."""

    def _reset_picture_state(self, frame_type: FrameType, mb_width: int, mb_height: int) -> None:
        self._grid = MvGrid(mb_width, mb_height)
        self._acdc = {name: AcDcStore() for name in PLANE_NAMES}

    def _p_predictor(self, mbx: int, mby: int) -> MotionVector:
        return self._grid.predictor(2 * mbx, 2 * mby, 2)

    def _set_p_mv(self, mbx: int, mby: int, mv: MotionVector) -> None:
        self._grid.set_block(2 * mbx, 2 * mby, 2, 2, mv)

    def _candidates(self, mbx: int, mby: int) -> List[MotionVector]:
        # Only P vectors enter the grid, so B macroblocks get none.
        return [int_mv(mv, self.unit) for mv in self._grid.neighbours(2 * mbx, 2 * mby)]

    @abc.abstractmethod
    def _intra_ac_bits(self, scanned: Sequence[int]) -> int:
        """Bit cost of coding ``scanned[1:]``."""

    @abc.abstractmethod
    def _write_intra_ac(self, writer: BitWriter, scanned: Sequence[int]) -> None:
        """Code ``scanned[1:]``."""

    def _encode_intra_mb(self, writer: BitWriter, source: WorkingFrame,
                         recon: Optional[WorkingFrame], mbx: int, mby: int) -> None:
        kernels = self.kernels
        qscale = self.config.qscale

        prepared = []
        bits_raw = 0
        bits_pred = 0
        for block_index, (plane, size, off_x, off_y) in enumerate(BLOCK_LAYOUT):
            x, y = mbx * size + off_x, mby * size + off_y
            block = source.plane(plane)[y : y + 8, x : x + 8]
            levels = kernels.quant_h263(kernels.fdct8(block), qscale, intra=True)
            bx, by = block_grid(plane, mbx, mby, block_index)
            direction, pred_dc, pred_ac = predict(self._acdc[plane], bx, by)
            self._acdc[plane].put(bx, by, levels)
            adjusted = apply_ac_prediction(levels, direction, pred_ac, -1)
            raw_scan = scan8(levels)
            pred_scan = scan8(adjusted)
            bits_raw += self._intra_ac_bits(raw_scan)
            bits_pred += self._intra_ac_bits(pred_scan)
            prepared.append((plane, x, y, levels, pred_dc, raw_scan, pred_scan))

        use_prediction = bits_pred < bits_raw
        writer.write_bit(1 if use_prediction else 0)

        cbp = 0
        for block_index, (_, _, _, _, _, raw_scan, pred_scan) in enumerate(prepared):
            scanned = pred_scan if use_prediction else raw_scan
            if any(scanned[1:]):
                cbp |= cbp_bit(block_index)
        self.tables.CBP_TABLE.write(writer, cbp)

        for block_index, (plane, x, y, levels, pred_dc, raw_scan, pred_scan) in enumerate(prepared):
            write_se(writer, int(levels[0, 0]) - pred_dc)
            if cbp & cbp_bit(block_index):
                self._write_intra_ac(writer, pred_scan if use_prediction else raw_scan)
            if recon is not None:
                coeffs = kernels.dequant_h263(levels, qscale, intra=True)
                recon.store_block(plane, x, y, intra_block(kernels, coeffs))
        self.stats.intra_macroblocks += 1


class AcDcDecoder(HybridDecoder):
    """Hybrid decoder with AC/DC-predicted intra macroblocks and median
    P-vector prediction; a subclass supplies the intra AC parser."""

    def _reset_picture_state(self, frame_type: FrameType, mb_width: int, mb_height: int) -> None:
        self._grid = MvGrid(mb_width, mb_height)
        self._acdc = {name: AcDcStore() for name in PLANE_NAMES}

    def _p_predictor(self, mbx: int, mby: int) -> MotionVector:
        return self._grid.predictor(2 * mbx, 2 * mby, 2)

    def _set_p_mv(self, mbx: int, mby: int, mv: MotionVector) -> None:
        self._grid.set_block(2 * mbx, 2 * mby, 2, 2, mv)

    @abc.abstractmethod
    def _read_intra_ac(self, reader: BitReader) -> List[int]:
        """Parse one intra block's AC levels into 64 scan positions."""

    def _decode_intra_mb(self, reader: BitReader, recon: WorkingFrame,
                         mbx: int, mby: int) -> None:
        kernels = self.kernels
        use_prediction = bool(reader.read_bit())
        cbp = self.tables.CBP_TABLE.read(reader)
        for block_index, (plane, size, off_x, off_y) in enumerate(BLOCK_LAYOUT):
            x, y = mbx * size + off_x, mby * size + off_y
            bx, by = block_grid(plane, mbx, mby, block_index)
            direction, pred_dc, pred_ac = predict(self._acdc[plane], bx, by)
            dc = pred_dc + read_se(reader)
            if cbp & cbp_bit(block_index):
                scanned = self._read_intra_ac(reader)
            else:
                scanned = [0] * 64
            levels = unscan8(scanned)
            if use_prediction:
                levels = apply_ac_prediction(levels, direction, pred_ac, +1)
            levels[0, 0] = dc
            self._acdc[plane].put(bx, by, levels)
            coeffs = kernels.dequant_h263(levels, self._qscale, intra=True)
            recon.store_block(plane, x, y, intra_block(kernels, coeffs))
