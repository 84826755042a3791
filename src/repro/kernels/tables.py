"""Constant tables shared by both kernel backends.

Everything here is integer so that the scalar and SIMD backends can be
bit-exact against each other.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# 8x8 DCT (MPEG-2 / MPEG-4 class codecs)
#
# Fixed-point orthonormal DCT-II: DCT8_INT = round(C * 2**DCT8_SHIFT) where
# C[i][j] = c(i)/2 * cos((2j+1) i pi / 16), c(0) = 1/sqrt(2), else 1.
# Forward transform: (A X A^T + 2**(2S-1)) >> 2S, which is the orthonormal
# DCT rounded to integers.  Both backends use the identical integer matrix,
# so results match exactly.
# ---------------------------------------------------------------------------

DCT8_SHIFT = 13


def _dct8_matrix() -> np.ndarray:
    rows = []
    for i in range(8):
        scale = math.sqrt(1.0 / 8.0) if i == 0 else math.sqrt(2.0 / 8.0)
        row = [
            int(round(scale * math.cos((2 * j + 1) * i * math.pi / 16.0) * (1 << DCT8_SHIFT)))
            for j in range(8)
        ]
        rows.append(row)
    return np.array(rows, dtype=np.int64)


DCT8_INT = _dct8_matrix()
DCT8_ROUND = 1 << (2 * DCT8_SHIFT - 1)
DCT8_FINAL_SHIFT = 2 * DCT8_SHIFT

# ---------------------------------------------------------------------------
# H.264 4x4 integer transform
# ---------------------------------------------------------------------------

#: Forward core transform matrix Cf (H.264 spec 8.5.12 equivalent).
H264_CF = np.array(
    [
        [1, 1, 1, 1],
        [2, 1, -1, -2],
        [1, -1, -1, 1],
        [1, -2, 2, -1],
    ],
    dtype=np.int64,
)

#: Inverse core transform matrix, scaled by 2 so the half-weight taps of
#: the standard's butterflies become integers: X = (CI @ W @ CI^T + 128) >> 8.
#: (The standard floors its half-taps mid-transform; this single-rounding
#: matmul form is used identically by both backends — see DESIGN.md.)
H264_CI = np.array(
    [
        [2, 2, 2, 1],
        [2, 1, -2, -2],
        [2, -1, -2, 2],
        [2, -2, 2, -1],
    ],
    dtype=np.int64,
)

#: 4x4 Hadamard matrix used for the Intra16x16 luma DC transform and SATD.
HADAMARD4 = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, -1, 1, -1],
    ],
    dtype=np.int64,
)

#: Quantisation multipliers MF[qp % 6][k], k = position class (a, b, c).
H264_MF = np.array(
    [
        [13107, 5243, 8066],
        [11916, 4660, 7490],
        [10082, 4194, 6554],
        [9362, 3647, 5825],
        [8192, 3355, 5243],
        [7282, 2893, 4559],
    ],
    dtype=np.int64,
)

#: Dequantisation multipliers V[qp % 6][k].
H264_V = np.array(
    [
        [10, 16, 13],
        [11, 18, 14],
        [13, 20, 16],
        [14, 23, 18],
        [16, 25, 20],
        [18, 29, 23],
    ],
    dtype=np.int64,
)

#: Position-class index for each coefficient of a 4x4 block:
#: class 0 at (0,0),(0,2),(2,0),(2,2); class 1 at (1,1),(1,3),(3,1),(3,3);
#: class 2 elsewhere.
H264_POSITION_CLASS = np.array(
    [
        [0, 2, 0, 2],
        [2, 1, 2, 1],
        [0, 2, 0, 2],
        [2, 1, 2, 1],
    ],
    dtype=np.int64,
)


# ---------------------------------------------------------------------------
# MPEG quantisation matrices
# ---------------------------------------------------------------------------

#: Default MPEG-2 intra quantiser matrix (ISO 13818-2 default).
MPEG_INTRA_MATRIX = np.array(
    [
        [8, 16, 19, 22, 26, 27, 29, 34],
        [16, 16, 22, 24, 27, 29, 34, 37],
        [19, 22, 26, 27, 29, 34, 34, 38],
        [22, 22, 26, 27, 29, 34, 37, 40],
        [22, 26, 27, 29, 32, 35, 40, 48],
        [26, 27, 29, 32, 35, 40, 48, 58],
        [26, 27, 29, 34, 38, 46, 56, 69],
        [27, 29, 35, 38, 46, 56, 69, 83],
    ],
    dtype=np.int64,
)

#: Default MPEG inter (non-intra) matrix: flat 16.
MPEG_INTER_MATRIX = np.full((8, 8), 16, dtype=np.int64)

#: Intra DC scaler (equivalent to intra_dc_precision = 8 bit).
MPEG_INTRA_DC_SCALER = 8

#: Numerator of the MPEG quantiser: level = SCALE * coeff / (W * qscale).
#: ISO 13818-2 uses 16 on its double-scaled DCT; our DCT is orthonormal, so
#: this constant also calibrates the effective step such that qscale 5
#: encodes land in the same quality band as H.264 QP 26 (Equation 1), as
#: Table V of the paper requires.
MPEG_QUANT_SCALE = 13

# ---------------------------------------------------------------------------
# H.264 deblocking thresholds.
#
# Self-consistent formulaic analogues of the spec's alpha/beta/tc0 tables
# (see DESIGN.md section 2, bitstream note): monotone in QP, zero below
# QP 16 so low-QP reconstructions are left untouched, magnitudes matching
# the spec tables at mid QP.
# ---------------------------------------------------------------------------

QP_MAX = 51


def _alpha_table() -> np.ndarray:
    values = []
    for qp in range(QP_MAX + 1):
        if qp < 16:
            values.append(0)
        else:
            values.append(min(255, int(round(0.8 * (2.0 ** (qp / 6.0) - 1.0)))))
    return np.array(values, dtype=np.int64)


def _beta_table() -> np.ndarray:
    values = []
    for qp in range(QP_MAX + 1):
        if qp < 16:
            values.append(0)
        else:
            values.append(min(18, int(round(0.5 * qp - 7.0))))
    return np.array(values, dtype=np.int64)


def _tc0_table() -> np.ndarray:
    table = np.zeros((QP_MAX + 1, 4), dtype=np.int64)
    for qp in range(16, QP_MAX + 1):
        for bs in (1, 2, 3):
            table[qp][bs] = max(0, int(round(2.0 ** ((qp - 24) / 6.0) * bs)))
    return table


DEBLOCK_ALPHA = _alpha_table()
DEBLOCK_BETA = _beta_table()
DEBLOCK_TC0 = _tc0_table()
