"""H.264 intra prediction.

Implements the Intra_4x4 directional modes (vertical, horizontal, DC,
diagonal-down-left, diagonal-down-right), the Intra_16x16 modes (vertical,
horizontal, DC, plane) and the chroma 8x8 modes (DC, horizontal, vertical,
plane).  Prediction reads *unfiltered* reconstructed neighbour samples, as
in the standard (the deblocking filter runs after the macroblock loop).

One simplification versus the spec: the top-right extension used by the
diagonal-down-left mode is always padded by replicating the last top
sample (the spec does this only when the top-right block is unavailable).
Both encoder and decoder share these functions, so prediction is always
consistent.

:func:`predict_luma4` and :func:`predict_block` predict one mode; the
decoder uses them.  :func:`predict_luma4_stack` and
:func:`predict_block_stack` predict every available mode of a block at once,
from one read of its neighbours, for the encoder's mode decisions; they
equal the per-mode predictors mode by mode.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import CodecError

#: Intra_4x4 mode names in code order.
LUMA4_MODES: Tuple[str, ...] = ("V", "H", "DC", "DDL", "DDR")
#: Intra_16x16 / chroma mode names in code order.
BLOCK_MODES: Tuple[str, ...] = ("V", "H", "DC", "PLANE")

#: Mode index used as the "most probable" default (DC), as in the spec.
DC_MODE_INDEX = LUMA4_MODES.index("DC")

# The neighbour vector of predict_luma4_stack: the 3-tap support
# ``l3 l2 l1 l0 corner t0 t1 t2 t3`` followed by t3 five more times (14
# values), its 12 filtered taps (tap m filters support m..m+2: taps 0..6 are
# the diagonal-down-right values, taps 5..11 the diagonal-down-left ones,
# whose replicated top-right and (3, 3) sample all filter to t3), then DC.
_TAPS = 14
_DC = _TAPS + 12
_ROWS, _COLS = np.mgrid[0:4, 0:4]
_LUMA4_INDEX = {
    "V": 5 + _COLS,
    "H": 3 - _ROWS,
    "DC": np.full((4, 4), _DC),
    "DDL": _TAPS + 5 + _ROWS + _COLS,
    "DDR": _TAPS + 3 + _COLS - _ROWS,
}
#: Plane-mode sample offsets from the block centre, per block size: along a
#: row, and down a column.
_PLANE_X = {size: np.arange(size, dtype=np.int64) - (size // 2 - 1) for size in (8, 16)}
_PLANE_Y = {size: offsets[:, None] for size, offsets in _PLANE_X.items()}


def available_luma4_modes(has_top: bool, has_left: bool) -> List[str]:
    """Intra_4x4 modes usable given neighbour availability."""
    modes = ["DC"]
    if has_top:
        modes.append("V")
        modes.append("DDL")
    if has_left:
        modes.append("H")
    if has_top and has_left:
        modes.append("DDR")
    return modes


def available_block_modes(has_top: bool, has_left: bool) -> List[str]:
    """Intra_16x16 / chroma modes usable given neighbour availability."""
    modes = ["DC"]
    if has_top:
        modes.append("V")
    if has_left:
        modes.append("H")
    if has_top and has_left:
        modes.append("PLANE")
    return modes


#: Per (has_top, has_left): the ``(n, 4, 4)`` positions in the neighbour
#: vector of every available mode, in :func:`available_luma4_modes` order.
_LUMA4_LAYOUTS: Dict[Tuple[bool, bool], np.ndarray] = {
    (has_top, has_left): np.stack(
        [_LUMA4_INDEX[mode] for mode in available_luma4_modes(has_top, has_left)]
    )
    for has_top in (False, True)
    for has_left in (False, True)
}


def predict_luma4_stack(plane: np.ndarray, x: int, y: int) -> np.ndarray:
    """Every available Intra_4x4 prediction of the block at (x, y), as one
    ``(n, 4, 4)`` stack in :func:`available_luma4_modes` order.

    The neighbours are read once into a small vector (see ``_TAPS``), and
    the stack is one gather from it.
    """
    has_top, has_left = y > 0, x > 0
    top = plane[y - 1, x : x + 4].tolist() if has_top else [0, 0, 0, 0]
    left = plane[y : y + 4, x - 1].tolist() if has_left else [0, 0, 0, 0]
    corner = 0
    if has_top and has_left:
        corner = int(plane[y - 1, x - 1])
        dc = (sum(top) + sum(left) + 4) >> 3
    elif has_top or has_left:
        dc = (sum(top) + sum(left) + 2) >> 2
    else:
        dc = 128
    support = left[::-1] + [corner] + top + [top[3]] * 5
    taps = [(a + 2 * b + c + 2) >> 2 for a, b, c in zip(support, support[1:], support[2:])]
    values = np.array(support + taps + [dc], dtype=np.int64)
    return values[_LUMA4_LAYOUTS[has_top, has_left]]


def _top_row(plane: np.ndarray, x: int, y: int, count: int) -> np.ndarray:
    return plane[y - 1, x : x + count]


def _left_col(plane: np.ndarray, x: int, y: int, count: int) -> np.ndarray:
    return plane[y : y + count, x - 1]


def predict_luma4(plane: np.ndarray, x: int, y: int, mode: str) -> np.ndarray:
    """Predict one 4x4 luma block at (x, y) from its decoded neighbours."""
    if mode == "DC":
        return _predict_dc(plane, x, y, 4)
    if mode == "V":
        return np.tile(_top_row(plane, x, y, 4).astype(np.int64), (4, 1))
    if mode == "H":
        return np.tile(
            _left_col(plane, x, y, 4).astype(np.int64).reshape(4, 1), (1, 4)
        )
    if mode == "DDL":
        return _predict_ddl(plane, x, y)
    if mode == "DDR":
        return _predict_ddr(plane, x, y)
    raise CodecError(f"unknown Intra_4x4 mode {mode!r}")


def _predict_dc(plane: np.ndarray, x: int, y: int, size: int) -> np.ndarray:
    has_top = y > 0
    has_left = x > 0
    if has_top and has_left:
        total = int(np.sum(_top_row(plane, x, y, size))) + int(
            np.sum(_left_col(plane, x, y, size))
        )
        dc = (total + size) // (2 * size)
    elif has_top:
        dc = (int(np.sum(_top_row(plane, x, y, size))) + size // 2) // size
    elif has_left:
        dc = (int(np.sum(_left_col(plane, x, y, size))) + size // 2) // size
    else:
        dc = 128
    return np.full((size, size), dc, dtype=np.int64)


def _predict_ddl(plane: np.ndarray, x: int, y: int) -> np.ndarray:
    # Top samples t[0..7]; t[4..7] replicated from t[3] (see module note).
    top = _top_row(plane, x, y, 4).astype(np.int64)
    t = np.concatenate([top, np.full(5, top[3], dtype=np.int64)])
    out = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            k = i + j
            if i == 3 and j == 3:
                out[i, j] = (t[6] + 3 * t[7] + 2) >> 2
            else:
                out[i, j] = (t[k] + 2 * t[k + 1] + t[k + 2] + 2) >> 2
    return out


def _predict_ddr(plane: np.ndarray, x: int, y: int) -> np.ndarray:
    top = _top_row(plane, x, y, 4).astype(np.int64)
    left = _left_col(plane, x, y, 4).astype(np.int64)
    corner = int(plane[y - 1, x - 1])
    # Build the diagonal support array: left reversed, corner, top.
    support = np.concatenate([left[::-1], [corner], top])  # length 9, index 4 = corner
    out = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            k = 4 + j - i  # position along the support
            out[i, j] = (support[k - 1] + 2 * support[k] + support[k + 1] + 2) >> 2
    return out


def predict_block(plane: np.ndarray, x: int, y: int, size: int, mode: str) -> np.ndarray:
    """Intra_16x16 (size=16) or chroma (size=8) prediction."""
    if mode == "DC":
        return _predict_dc(plane, x, y, size)
    if mode == "V":
        return np.tile(_top_row(plane, x, y, size).astype(np.int64), (size, 1))
    if mode == "H":
        return np.tile(
            _left_col(plane, x, y, size).astype(np.int64).reshape(size, 1), (1, size)
        )
    if mode == "PLANE":
        return _predict_plane(plane, x, y, size)
    raise CodecError(f"unknown intra block mode {mode!r}")


def _predict_plane(plane: np.ndarray, x: int, y: int, size: int) -> np.ndarray:
    half = size // 2
    top = _top_row(plane, x, y, size).astype(np.int64)
    left = _left_col(plane, x, y, size).astype(np.int64)
    corner = int(plane[y - 1, x - 1])
    grad_h = 0
    grad_v = 0
    for i in range(half):
        right_sample = int(top[half + i])
        left_sample = int(top[half - 2 - i]) if half - 2 - i >= 0 else corner
        grad_h += (i + 1) * (right_sample - left_sample)
        bottom_sample = int(left[half + i])
        top_sample = int(left[half - 2 - i]) if half - 2 - i >= 0 else corner
        grad_v += (i + 1) * (bottom_sample - top_sample)
    if size == 16:
        b = (5 * grad_h + 32) >> 6
        c = (5 * grad_v + 32) >> 6
    else:
        b = (17 * grad_h + 16) >> 5
        c = (17 * grad_v + 16) >> 5
    a = 16 * (int(left[size - 1]) + int(top[size - 1]))
    ys, xs = np.mgrid[0:size, 0:size].astype(np.int64)
    values = (a + b * (xs - (half - 1)) + c * (ys - (half - 1)) + 16) >> 5
    return np.clip(values, 0, 255)


def predict_block_stack(plane: np.ndarray, x: int, y: int, size: int) -> np.ndarray:
    """Every available Intra_16x16 (size=16) or chroma (size=8) prediction
    of the block at (x, y), as one ``(n, size, size)`` stack in
    :func:`available_block_modes` order.

    The row above and the column to the left are read once each, and each
    mode is broadcast from them.
    """
    has_top, has_left = y > 0, x > 0
    both = has_top and has_left
    out = np.empty((1 + has_top + has_left + both, size, size), dtype=np.int64)
    # With both neighbours the corner leads the row and the column, so
    # top[k] and left[k] are the samples k - 1 along each line.
    if has_top:
        row = plane[y - 1, x - both : x + size]
        top = row.tolist()
    if has_left:
        col = plane[y - both : y + size, x - 1]
        left = col.tolist()
    if both:
        out[0] = (sum(top) + sum(left) - 2 * top[0] + size) // (2 * size)
    elif has_top:
        out[0] = (sum(top) + size // 2) // size
    elif has_left:
        out[0] = (sum(left) + size // 2) // size
    else:
        out[0] = 128
    index = 1
    if has_top:
        out[index] = row[both:]
        index += 1
    if has_left:
        out[index] = col[both:, None]
        index += 1
    if both:
        # The gradients weigh the sample pairs 1..size/2 out from the middle.
        half = size // 2
        grad_h = grad_v = 0
        for weight in range(1, half + 1):
            grad_h += weight * (top[half + weight] - top[half - weight])
            grad_v += weight * (left[half + weight] - left[half - weight])
        if size == 16:
            b, c = (5 * grad_h + 32) >> 6, (5 * grad_v + 32) >> 6
        else:
            b, c = (17 * grad_h + 16) >> 5, (17 * grad_v + 16) >> 5
        values = (b * _PLANE_X[size] + 16 * (left[size] + top[size]) + 16) + c * _PLANE_Y[size]
        values >>= 5
        np.minimum(np.maximum(values, 0, out=values), 255, out=out[index])
    return out
