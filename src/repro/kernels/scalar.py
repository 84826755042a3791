"""Scalar kernel backend: pure-Python integer loops.

This backend is the analogue of the paper's "scalar" (plain C, no SIMD)
codec builds.  Every kernel converts its operands to plain Python lists and
performs element-wise integer arithmetic in interpreted loops; the SIMD
backend (:mod:`repro.kernels.simd`) implements the *identical* integer
algorithms with NumPy vector operations, so the two backends are bit-exact
against each other and differ only in throughput.

Conventions
-----------
* Pixel blocks and planes arrive as 2-D NumPy integer arrays; results are
  returned as ``int64`` arrays (or plain ``int`` for costs).
* Motion-compensation kernels take a *padded* reference plane and absolute
  block coordinates; callers guarantee the pad margin covers the motion
  range plus the interpolation support (see :mod:`repro.mc.pad`).
* All divisions/rounding are spelled out with explicit integer operations
  so both backends round identically (``>>`` is an arithmetic floor shift
  in both Python and NumPy).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.kernels import tables

Block = List[List[int]]


def _to_list(block) -> Block:
    if isinstance(block, np.ndarray):
        return block.tolist()
    return [list(row) for row in block]


def _to_array(rows: Sequence[Sequence[int]]) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def _to_list1(vector) -> List[int]:
    if isinstance(vector, np.ndarray):
        return vector.tolist()
    return list(vector)


def _to_array1(values: Sequence[int]) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _clip255(value: int) -> int:
    if value < 0:
        return 0
    if value > 255:
        return 255
    return value


def _clip3(low: int, high: int, value: int) -> int:
    if value < low:
        return low
    if value > high:
        return high
    return value


def _div_round_away(numerator: int, denominator: int) -> int:
    """Round-half-away-from-zero integer division (denominator > 0)."""
    if numerator >= 0:
        return (numerator + denominator // 2) // denominator
    return -((-numerator + denominator // 2) // denominator)


def _div_to_zero(numerator: int, denominator: int) -> int:
    """Truncating integer division (denominator > 0)."""
    if numerator >= 0:
        return numerator // denominator
    return -((-numerator) // denominator)


def _per_block(kernel, blocks, *args) -> np.ndarray:
    """``kernel(block, *args)`` for every 4x4 block of an ``(n, 4, 4)`` stack."""
    out = np.zeros(np.shape(blocks), dtype=np.int64)
    for index, block in enumerate(blocks):
        out[index] = kernel(block, *args)
    return out


_DCT8 = tables.DCT8_INT.tolist()
_HAD4 = tables.HADAMARD4.tolist()
_CF = tables.H264_CF.tolist()
_CI = tables.H264_CI.tolist()
_POS_CLASS = tables.H264_POSITION_CLASS.tolist()
_MF = tables.H264_MF.tolist()
_V = tables.H264_V.tolist()


class ScalarKernels:
    """Pure-Python implementation of the kernel API."""

    name = "scalar"

    # ------------------------------------------------------------------
    # cost kernels
    # ------------------------------------------------------------------

    def sad(self, a, b):
        """Sum of absolute differences between two equal-shape blocks.

        ``b`` may be an ``(n, h, w)`` stack of candidates for ``a``: the
        result is then the list of their n sums.  ``a`` may be an
        ``(n, h, w)`` stack too, paired block for block with ``b``: the
        result is then the list of the n sums of ``a[i]`` against ``b[i]``.
        """
        if np.ndim(a) == 3:
            if np.ndim(b) != 3 or len(a) != len(b):
                raise ValueError(f"sad pairs a stack of {len(a)} blocks with {np.shape(b)}")
            return [self.sad(block_a, block_b) for block_a, block_b in zip(a, b)]
        if np.ndim(b) == 3:
            return [self.sad(a, block) for block in b]
        la, lb = _to_list(a), _to_list(b)
        total = 0
        for row_a, row_b in zip(la, lb):
            for pa, pb in zip(row_a, row_b):
                diff = pa - pb
                total += diff if diff >= 0 else -diff
        return total

    def ssd(self, a, b) -> int:
        """Sum of squared differences."""
        la, lb = _to_list(a), _to_list(b)
        total = 0
        for row_a, row_b in zip(la, lb):
            for pa, pb in zip(row_a, row_b):
                diff = pa - pb
                total += diff * diff
        return total

    def satd4(self, a, b) -> int:
        """4x4 SATD: sum of absolute Hadamard-transformed differences / 2."""
        la, lb = _to_list(a), _to_list(b)
        diff = [
            [la[i][j] - lb[i][j] for j in range(4)]
            for i in range(4)
        ]
        tmp = self._mat4(_HAD4, diff)
        out = self._mat4(tmp, _HAD4)  # H is symmetric: H @ D @ H^T == H @ D @ H
        total = 0
        for row in out:
            for value in row:
                total += value if value >= 0 else -value
        return total >> 1

    # ------------------------------------------------------------------
    # block arithmetic
    # ------------------------------------------------------------------

    def sub(self, a, b) -> np.ndarray:
        """Element-wise ``a - b``."""
        la, lb = _to_list(a), _to_list(b)
        return _to_array(
            [[pa - pb for pa, pb in zip(row_a, row_b)] for row_a, row_b in zip(la, lb)]
        )

    def add_clip(self, prediction, residual) -> np.ndarray:
        """Element-wise ``clip(prediction + residual, 0, 255)``."""
        lp, lr = _to_list(prediction), _to_list(residual)
        return _to_array(
            [
                [_clip255(pp + pr) for pp, pr in zip(row_p, row_r)]
                for row_p, row_r in zip(lp, lr)
            ]
        )

    def average(self, a, b) -> np.ndarray:
        """Rounded average ``(a + b + 1) >> 1`` (bi-prediction, half-pel)."""
        la, lb = _to_list(a), _to_list(b)
        return _to_array(
            [
                [(pa + pb + 1) >> 1 for pa, pb in zip(row_a, row_b)]
                for row_a, row_b in zip(la, lb)
            ]
        )

    # ------------------------------------------------------------------
    # 8x8 DCT family
    # ------------------------------------------------------------------

    @staticmethod
    def _mat8(a: Block, b: Block) -> Block:
        return [
            [sum(a[i][k] * b[k][j] for k in range(8)) for j in range(8)]
            for i in range(8)
        ]

    @staticmethod
    def _mat4(a: Block, b: Block) -> Block:
        return [
            [sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]

    def fdct8(self, block) -> np.ndarray:
        """Fixed-point orthonormal 8x8 forward DCT."""
        x = _to_list(block)
        a = _DCT8
        tmp = self._mat8(a, x)
        # tmp @ A^T with final rounding shift
        out = [
            [
                (sum(tmp[i][k] * a[j][k] for k in range(8)) + tables.DCT8_ROUND)
                >> tables.DCT8_FINAL_SHIFT
                for j in range(8)
            ]
            for i in range(8)
        ]
        return _to_array(out)

    def idct8(self, coeffs) -> np.ndarray:
        """Fixed-point orthonormal 8x8 inverse DCT."""
        y = _to_list(coeffs)
        a = _DCT8
        # A^T @ Y
        tmp = [
            [sum(a[k][i] * y[k][j] for k in range(8)) for j in range(8)]
            for i in range(8)
        ]
        out = [
            [
                (sum(tmp[i][k] * a[k][j] for k in range(8)) + tables.DCT8_ROUND)
                >> tables.DCT8_FINAL_SHIFT
                for j in range(8)
            ]
            for i in range(8)
        ]
        return _to_array(out)

    # ------------------------------------------------------------------
    # H.264 4x4 integer transform family
    # ------------------------------------------------------------------

    def fwd_transform4(self, block) -> np.ndarray:
        """H.264 forward core transform: Cf @ X @ Cf^T (exact integers).

        ``block`` is one 4x4 block or an ``(n, 4, 4)`` stack of them.
        """
        if np.ndim(block) == 3:
            return _per_block(self.fwd_transform4, block)
        x = _to_list(block)
        tmp = self._mat4(_CF, x)
        out = [
            [sum(tmp[i][k] * _CF[j][k] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        return _to_array(out)

    def inv_transform4(self, coeffs) -> np.ndarray:
        """H.264 inverse core transform: ``(CI @ W @ CI^T + 128) >> 8``.

        ``coeffs`` is one 4x4 block or an ``(n, 4, 4)`` stack of them.
        """
        if np.ndim(coeffs) == 3:
            return _per_block(self.inv_transform4, coeffs)
        w = _to_list(coeffs)
        tmp = self._mat4(_CI, w)
        out = [
            [
                (sum(tmp[i][k] * _CI[j][k] for k in range(4)) + 128) >> 8
                for j in range(4)
            ]
            for i in range(4)
        ]
        return _to_array(out)

    def hadamard4_forward(self, block) -> np.ndarray:
        """Forward 4x4 Hadamard for luma DC: ``(H @ X @ H) >> 1``."""
        x = _to_list(block)
        tmp = self._mat4(_HAD4, x)
        out = [
            [self._had_row(tmp, i, j) >> 1 for j in range(4)]
            for i in range(4)
        ]
        return _to_array(out)

    @staticmethod
    def _had_row(tmp: Block, i: int, j: int) -> int:
        return sum(tmp[i][k] * _HAD4[k][j] for k in range(4))

    def hadamard4_inverse(self, coeffs) -> np.ndarray:
        """Inverse 4x4 Hadamard for luma DC: ``H @ Y @ H`` (no scaling)."""
        y = _to_list(coeffs)
        tmp = self._mat4(_HAD4, y)
        out = self._mat4(tmp, _HAD4)
        return _to_array(out)

    def hadamard2(self, block) -> np.ndarray:
        """2x2 Hadamard (self-inverse up to scale), used for chroma DC."""
        b = _to_list(block)
        a, c = b[0]
        d, e = b[1]
        return _to_array(
            [
                [a + c + d + e, a - c + d - e],
                [a + c - d - e, a - c - d + e],
            ]
        )

    # ------------------------------------------------------------------
    # MPEG-2 style quantisation (weighted matrices)
    # ------------------------------------------------------------------

    def quant_mpeg(self, coeffs, matrix, qscale: int, intra: bool) -> np.ndarray:
        c = _to_list(coeffs)
        w = _to_list(matrix)
        out = [[0] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(8):
                value = c[i][j]
                if intra and i == 0 and j == 0:
                    level = _div_round_away(value, tables.MPEG_INTRA_DC_SCALER)
                elif intra:
                    level = _div_round_away(tables.MPEG_QUANT_SCALE * value, w[i][j] * qscale)
                else:
                    level = _div_to_zero(tables.MPEG_QUANT_SCALE * value, w[i][j] * qscale)
                out[i][j] = _clip3(-2047, 2047, level)
        return _to_array(out)

    def dequant_mpeg(self, levels, matrix, qscale: int, intra: bool) -> np.ndarray:
        lv = _to_list(levels)
        w = _to_list(matrix)
        out = [[0] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(8):
                level = lv[i][j]
                if intra and i == 0 and j == 0:
                    out[i][j] = level * tables.MPEG_INTRA_DC_SCALER
                elif level == 0:
                    out[i][j] = 0
                elif intra:
                    out[i][j] = _div_to_zero(level * w[i][j] * qscale, tables.MPEG_QUANT_SCALE)
                else:
                    mag = (2 * abs(level) + 1) * w[i][j] * qscale // (2 * tables.MPEG_QUANT_SCALE)
                    out[i][j] = mag if level > 0 else -mag
        return _to_array(out)

    def quant_matrix(self, coeffs, matrix) -> np.ndarray:
        """Plain matrix quantiser: round-to-nearest ``c / W`` (JPEG style)."""
        c = _to_list(coeffs)
        w = _to_list(matrix)
        out = [
            [_div_round_away(c[i][j], w[i][j]) for j in range(8)]
            for i in range(8)
        ]
        return _to_array(out)

    def dequant_matrix(self, levels, matrix) -> np.ndarray:
        """Inverse of :meth:`quant_matrix`: ``level * W``."""
        lv = _to_list(levels)
        w = _to_list(matrix)
        out = [
            [lv[i][j] * w[i][j] for j in range(8)]
            for i in range(8)
        ]
        return _to_array(out)

    # ------------------------------------------------------------------
    # H.263-style quantisation (MPEG-4 ASP class)
    # ------------------------------------------------------------------

    def quant_h263(self, coeffs, qp: int, intra: bool) -> np.ndarray:
        """H.263-style uniform quantiser (MPEG-4 ASP class).

        Intra AC coefficients are rounded to the nearest multiple of the
        step (2*qp, as in H.263); inter coefficients use a one-step dead
        zone.  Reconstruction is at the bin centre.  The intra DC scaler
        is 8.
        """
        c = _to_list(coeffs)
        step2 = 4 * qp  # step in half-units: 2 * qp
        out = [[0] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(8):
                value = c[i][j]
                if intra and i == 0 and j == 0:
                    level = _div_round_away(value, 8)
                else:
                    mag = abs(value)
                    if intra:
                        level = (2 * mag + step2 // 2) // step2
                    else:
                        level = 2 * mag // step2
                    if value < 0:
                        level = -level
                out[i][j] = _clip3(-2047, 2047, level)
        return _to_array(out)

    def dequant_h263(self, levels, qp: int, intra: bool) -> np.ndarray:
        lv = _to_list(levels)
        step2 = 4 * qp
        out = [[0] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(8):
                level = lv[i][j]
                if intra and i == 0 and j == 0:
                    out[i][j] = level * 8
                elif level == 0:
                    out[i][j] = 0
                elif intra:
                    mag = abs(level) * step2 // 2
                    out[i][j] = mag if level > 0 else -mag
                else:
                    mag = (2 * abs(level) + 1) * step2 // 4
                    out[i][j] = mag if level > 0 else -mag
        return _to_array(out)

    # ------------------------------------------------------------------
    # H.264 quantisation
    # ------------------------------------------------------------------

    @staticmethod
    def _h264_f(qp: int, intra: bool) -> Tuple[int, int]:
        qbits = 15 + qp // 6
        f = (1 << qbits) // 3 if intra else (1 << qbits) // 6
        return qbits, f

    def quant_h264_4x4(self, coeffs, qp: int, intra: bool) -> np.ndarray:
        """``level = sign * ((|c| MF + f) >> qbits)`` on one 4x4 block or an ``(n, 4, 4)`` stack."""
        if np.ndim(coeffs) == 3:
            return _per_block(self.quant_h264_4x4, coeffs, qp, intra)
        c = _to_list(coeffs)
        qbits, f = self._h264_f(qp, intra)
        mf_row = _MF[qp % 6]
        out = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                value = c[i][j]
                mf = mf_row[_POS_CLASS[i][j]]
                level = (abs(value) * mf + f) >> qbits
                out[i][j] = level if value >= 0 else -level
        return _to_array(out)

    def dequant_h264_4x4(self, levels, qp: int) -> np.ndarray:
        """``W = level * V << (qp / 6)`` on one 4x4 block or an ``(n, 4, 4)`` stack."""
        if np.ndim(levels) == 3:
            return _per_block(self.dequant_h264_4x4, levels, qp)
        lv = _to_list(levels)
        v_row = _V[qp % 6]
        shift = qp // 6
        out = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                out[i][j] = (lv[i][j] * v_row[_POS_CLASS[i][j]]) << shift
        return _to_array(out)

    def quant_h264_dc4(self, dc, qp: int, intra: bool) -> np.ndarray:
        """Quantise the (already Hadamard-transformed) 4x4 luma DC block."""
        c = _to_list(dc)
        qbits, f = self._h264_f(qp, intra)
        mf0 = _MF[qp % 6][0]
        out = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                value = c[i][j]
                level = (abs(value) * mf0 + 2 * f) >> (qbits + 1)
                out[i][j] = level if value >= 0 else -level
        return _to_array(out)

    def dequant_h264_dc4(self, levels, qp: int) -> np.ndarray:
        """Inverse Hadamard + dequantise the 4x4 luma DC block."""
        f = _to_list(self.hadamard4_inverse(levels))
        v0 = _V[qp % 6][0]
        shift = qp // 6
        out = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                if shift >= 2:
                    out[i][j] = (f[i][j] * v0) << (shift - 2)
                else:
                    rounding = 1 << (1 - shift)
                    out[i][j] = (f[i][j] * v0 + rounding) >> (2 - shift)
        return _to_array(out)

    def quant_h264_dc2(self, dc, qp: int, intra: bool) -> np.ndarray:
        """Quantise the (Hadamard-transformed) 2x2 chroma DC block."""
        c = _to_list(dc)
        qbits, f = self._h264_f(qp, intra)
        mf0 = _MF[qp % 6][0]
        out = [[0] * 2 for _ in range(2)]
        for i in range(2):
            for j in range(2):
                value = c[i][j]
                level = (abs(value) * mf0 + 2 * f) >> (qbits + 1)
                out[i][j] = level if value >= 0 else -level
        return _to_array(out)

    def dequant_h264_dc2(self, levels, qp: int) -> np.ndarray:
        """Inverse Hadamard + dequantise the 2x2 chroma DC block."""
        f = _to_list(self.hadamard2(levels))
        v0 = _V[qp % 6][0]
        shift = qp // 6
        out = [[0] * 2 for _ in range(2)]
        for i in range(2):
            for j in range(2):
                out[i][j] = ((f[i][j] * v0) << shift) >> 1
        return _to_array(out)

    # ------------------------------------------------------------------
    # motion compensation / interpolation
    # ------------------------------------------------------------------

    def get_block(self, plane, x: int, y: int, width: int, height: int) -> np.ndarray:
        """Copy an integer-pel block out of a (padded) plane."""
        return np.asarray(plane[y : y + height, x : x + width], dtype=np.int64).copy()

    def mc_halfpel(self, plane, x: int, y: int, width: int, height: int,
                   mvx: int, mvy: int) -> np.ndarray:
        """MPEG-2 class half-pel bilinear interpolation.

        ``mvx``/``mvy`` are in half-pel units relative to (x, y).
        """
        ix = x + (mvx >> 1)
        iy = y + (mvy >> 1)
        fx = mvx & 1
        fy = mvy & 1
        region = plane[iy : iy + height + 1, ix : ix + width + 1].tolist()
        out = [[0] * width for _ in range(height)]
        for r in range(height):
            row0 = region[r]
            row1 = region[r + 1]
            orow = out[r]
            if fx == 0 and fy == 0:
                for c in range(width):
                    orow[c] = row0[c]
            elif fx == 1 and fy == 0:
                for c in range(width):
                    orow[c] = (row0[c] + row0[c + 1] + 1) >> 1
            elif fx == 0 and fy == 1:
                for c in range(width):
                    orow[c] = (row0[c] + row1[c] + 1) >> 1
            else:
                for c in range(width):
                    orow[c] = (row0[c] + row0[c + 1] + row1[c] + row1[c + 1] + 2) >> 2
        return _to_array(out)

    def mc_qpel_bilinear(self, plane, x: int, y: int, width: int, height: int,
                         mvx: int, mvy: int) -> np.ndarray:
        """MPEG-4 ASP class quarter-pel bilinear interpolation.

        ``mvx``/``mvy`` are in quarter-pel units.
        """
        ix = x + (mvx >> 2)
        iy = y + (mvy >> 2)
        fx = mvx & 3
        fy = mvy & 3
        region = plane[iy : iy + height + 1, ix : ix + width + 1].tolist()
        w00 = (4 - fx) * (4 - fy)
        w10 = fx * (4 - fy)
        w01 = (4 - fx) * fy
        w11 = fx * fy
        out = [[0] * width for _ in range(height)]
        for r in range(height):
            row0 = region[r]
            row1 = region[r + 1]
            orow = out[r]
            for c in range(width):
                orow[c] = (
                    w00 * row0[c]
                    + w10 * row0[c + 1]
                    + w01 * row1[c]
                    + w11 * row1[c + 1]
                    + 8
                ) >> 4
        return _to_array(out)

    # -- H.264 six-tap quarter-pel -------------------------------------

    @staticmethod
    def _six_tap(a: int, b: int, c: int, d: int, e: int, f: int) -> int:
        return a - 5 * b + 20 * c + 20 * d - 5 * e + f

    def _h264_halfpel_h(self, region: Block, rows: int, cols: int,
                        row_off: int, col_off: int) -> Block:
        """Clipped horizontal half-pel samples b(r + row_off, c + col_off).

        ``region`` is indexed with a (+2, +2) origin shift so that offsets
        down to -2 are addressable.
        """
        out = []
        for r in range(rows):
            rr = region[r + 2 + row_off]
            row = []
            for c in range(cols):
                base = c + 2 + col_off
                raw = self._six_tap(
                    rr[base - 2], rr[base - 1], rr[base], rr[base + 1],
                    rr[base + 2], rr[base + 3],
                )
                row.append(_clip255((raw + 16) >> 5))
            out.append(row)
        return out

    def _h264_halfpel_v(self, region: Block, rows: int, cols: int,
                        row_off: int, col_off: int) -> Block:
        """Clipped vertical half-pel samples h(r + row_off, c + col_off)."""
        out = []
        for r in range(rows):
            base_r = r + 2 + row_off
            row = []
            for c in range(cols):
                cc = c + 2 + col_off
                raw = self._six_tap(
                    region[base_r - 2][cc], region[base_r - 1][cc],
                    region[base_r][cc], region[base_r + 1][cc],
                    region[base_r + 2][cc], region[base_r + 3][cc],
                )
                row.append(_clip255((raw + 16) >> 5))
            out.append(row)
        return out

    def _h264_center(self, region: Block, rows: int, cols: int) -> Block:
        """Clipped centre half-pel samples j(r, c)."""
        # Unclipped horizontal intermediates for rows -2 .. rows+2.
        inter = []
        for r in range(rows + 5):
            rr = region[r]
            row = []
            for c in range(cols):
                base = c + 2
                row.append(
                    self._six_tap(
                        rr[base - 2], rr[base - 1], rr[base], rr[base + 1],
                        rr[base + 2], rr[base + 3],
                    )
                )
            inter.append(row)
        out = []
        for r in range(rows):
            row = []
            for c in range(cols):
                raw = self._six_tap(
                    inter[r][c], inter[r + 1][c], inter[r + 2][c],
                    inter[r + 3][c], inter[r + 4][c], inter[r + 5][c],
                )
                row.append(_clip255((raw + 512) >> 10))
            out.append(row)
        return out

    @staticmethod
    def _avg_block(a: Block, b: Block) -> Block:
        return [
            [(pa + pb + 1) >> 1 for pa, pb in zip(ra, rb)]
            for ra, rb in zip(a, b)
        ]

    def mc_qpel_h264(self, plane, x: int, y: int, width: int, height: int,
                     mvx: int, mvy: int) -> np.ndarray:
        """H.264 six-tap luma quarter-pel interpolation.

        ``mvx``/``mvy`` are in quarter-pel units.  Implements the full
        16-position sub-pel grid of the standard (positions G, a..s).
        """
        ix = x + (mvx >> 2)
        iy = y + (mvy >> 2)
        fx = mvx & 3
        fy = mvy & 3
        # Region with margin 2 before and 3 after in both dimensions,
        # indexed with a (+2, +2) origin shift.
        region = plane[iy - 2 : iy + height + 3, ix - 2 : ix + width + 3].tolist()

        def integer(row_off: int = 0, col_off: int = 0) -> Block:
            return [
                [region[r + 2 + row_off][c + 2 + col_off] for c in range(width)]
                for r in range(height)
            ]

        if fx == 0 and fy == 0:
            return _to_array(integer())

        if fy == 0:
            b = self._h264_halfpel_h(region, height, width, 0, 0)
            if fx == 2:
                return _to_array(b)
            g = integer(0, 0) if fx == 1 else integer(0, 1)
            return _to_array(self._avg_block(g, b))

        if fx == 0:
            h = self._h264_halfpel_v(region, height, width, 0, 0)
            if fy == 2:
                return _to_array(h)
            g = integer(0, 0) if fy == 1 else integer(1, 0)
            return _to_array(self._avg_block(g, h))

        if fx == 2 and fy == 2:
            return _to_array(self._h264_center(region, height, width))

        if fx == 2:
            # f (fy == 1) and q (fy == 3): average of j and b / s.
            j = self._h264_center(region, height, width)
            row_off = 0 if fy == 1 else 1
            b = self._h264_halfpel_h(region, height, width, row_off, 0)
            return _to_array(self._avg_block(b, j))

        if fy == 2:
            # i (fx == 1) and k (fx == 3): average of j and h / m.
            j = self._h264_center(region, height, width)
            col_off = 0 if fx == 1 else 1
            h = self._h264_halfpel_v(region, height, width, 0, col_off)
            return _to_array(self._avg_block(h, j))

        # Diagonal quarter positions e, g, p, r: average of the nearest
        # horizontal and vertical half-pel samples.
        row_off = 0 if fy == 1 else 1
        col_off = 0 if fx == 1 else 1
        b = self._h264_halfpel_h(region, height, width, row_off, 0)
        h = self._h264_halfpel_v(region, height, width, 0, col_off)
        return _to_array(self._avg_block(b, h))

    def mc_chroma_bilinear8(self, plane, x: int, y: int, width: int, height: int,
                            mvx: int, mvy: int) -> np.ndarray:
        """H.264 chroma eighth-pel bilinear interpolation."""
        ix = x + (mvx >> 3)
        iy = y + (mvy >> 3)
        fx = mvx & 7
        fy = mvy & 7
        region = plane[iy : iy + height + 1, ix : ix + width + 1].tolist()
        w00 = (8 - fx) * (8 - fy)
        w10 = fx * (8 - fy)
        w01 = (8 - fx) * fy
        w11 = fx * fy
        out = [[0] * width for _ in range(height)]
        for r in range(height):
            row0 = region[r]
            row1 = region[r + 1]
            orow = out[r]
            for c in range(width):
                orow[c] = (
                    w00 * row0[c]
                    + w10 * row0[c + 1]
                    + w01 * row1[c]
                    + w11 * row1[c + 1]
                    + 32
                ) >> 6
        return _to_array(out)

    # ------------------------------------------------------------------
    # H.264 in-loop deblocking
    # ------------------------------------------------------------------

    def deblock_normal(self, p2, p1, p0, q0, q1, q2,
                       alpha: int, beta: int, c0, chroma: bool):
        """Normal-strength (bS < 4) edge filter over a line of positions.

        All sample arguments are 1-D arrays of equal length (one entry per
        position along the edge); ``c0`` is an array of per-position clip
        values, with a negative entry marking boundary strength 0 (that
        position is left unfiltered).  Returns filtered ``(p1, p0, q0, q1)``.
        """
        lp2, lp1, lp0 = _to_list1(p2), _to_list1(p1), _to_list1(p0)
        lq0, lq1, lq2 = _to_list1(q0), _to_list1(q1), _to_list1(q2)
        lc0 = _to_list1(c0)
        n = len(lp0)
        op1, op0, oq0, oq1 = list(lp1), list(lp0), list(lq0), list(lq1)
        for i in range(n):
            if lc0[i] < 0:
                continue
            vp0, vq0 = lp0[i], lq0[i]
            if abs(vp0 - vq0) >= alpha:
                continue
            if abs(lp1[i] - vp0) >= beta or abs(lq1[i] - vq0) >= beta:
                continue
            ap = abs(lp2[i] - vp0)
            aq = abs(lq2[i] - vq0)
            if chroma:
                c = lc0[i] + 1
            else:
                c = lc0[i] + (1 if ap < beta else 0) + (1 if aq < beta else 0)
            delta = _clip3(-c, c, ((lq0[i] - vp0) * 4 + (lp1[i] - lq1[i]) + 4) >> 3)
            op0[i] = _clip255(vp0 + delta)
            oq0[i] = _clip255(vq0 - delta)
            if not chroma:
                if ap < beta:
                    adj = _clip3(
                        -lc0[i], lc0[i],
                        (lp2[i] + ((vp0 + vq0 + 1) >> 1) - 2 * lp1[i]) >> 1,
                    )
                    op1[i] = lp1[i] + adj
                if aq < beta:
                    adj = _clip3(
                        -lc0[i], lc0[i],
                        (lq2[i] + ((vp0 + vq0 + 1) >> 1) - 2 * lq1[i]) >> 1,
                    )
                    oq1[i] = lq1[i] + adj
        return (_to_array1(op1), _to_array1(op0), _to_array1(oq0), _to_array1(oq1))

    def deblock_strong(self, p3, p2, p1, p0, q0, q1, q2, q3,
                       alpha: int, beta: int, mask, chroma: bool):
        """Strong (bS == 4, intra) edge filter over a line of positions.

        ``mask`` is a per-position 0/1 array; positions with 0 are left
        unfiltered.  Returns filtered ``(p2, p1, p0, q0, q1, q2)``.
        """
        lp3, lp2, lp1, lp0 = (_to_list1(p3), _to_list1(p2),
                              _to_list1(p1), _to_list1(p0))
        lq0, lq1, lq2, lq3 = (_to_list1(q0), _to_list1(q1),
                              _to_list1(q2), _to_list1(q3))
        lmask = _to_list1(mask)
        n = len(lp0)
        op2, op1, op0 = list(lp2), list(lp1), list(lp0)
        oq0, oq1, oq2 = list(lq0), list(lq1), list(lq2)
        for i in range(n):
            if not lmask[i]:
                continue
            vp0, vq0 = lp0[i], lq0[i]
            if abs(vp0 - vq0) >= alpha:
                continue
            if abs(lp1[i] - vp0) >= beta or abs(lq1[i] - vq0) >= beta:
                continue
            if chroma:
                op0[i] = (2 * lp1[i] + vp0 + lq1[i] + 2) >> 2
                oq0[i] = (2 * lq1[i] + vq0 + lp1[i] + 2) >> 2
                continue
            strong = abs(vp0 - vq0) < (alpha >> 2) + 2
            ap = abs(lp2[i] - vp0)
            aq = abs(lq2[i] - vq0)
            if strong and ap < beta:
                op0[i] = (lp2[i] + 2 * lp1[i] + 2 * vp0 + 2 * vq0 + lq1[i] + 4) >> 3
                op1[i] = (lp2[i] + lp1[i] + vp0 + vq0 + 2) >> 2
                op2[i] = (2 * lp3[i] + 3 * lp2[i] + lp1[i] + vp0 + vq0 + 4) >> 3
            else:
                op0[i] = (2 * lp1[i] + vp0 + lq1[i] + 2) >> 2
            if strong and aq < beta:
                oq0[i] = (lq2[i] + 2 * lq1[i] + 2 * vq0 + 2 * vp0 + lp1[i] + 4) >> 3
                oq1[i] = (lq2[i] + lq1[i] + vq0 + vp0 + 2) >> 2
                oq2[i] = (2 * lq3[i] + 3 * lq2[i] + lq1[i] + vq0 + vp0 + 4) >> 3
            else:
                oq0[i] = (2 * lq1[i] + vq0 + lp1[i] + 2) >> 2
        return (_to_array1(op2), _to_array1(op1), _to_array1(op0),
                _to_array1(oq0), _to_array1(oq1), _to_array1(oq2))
