"""Coefficient scan orders.

Quantised transform coefficients are serialised in zigzag order before
entropy coding; all three codecs use these scans.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def _zigzag_positions(size: int) -> List[Tuple[int, int]]:
    """Classic zigzag order for a ``size`` x ``size`` block."""
    positions = []
    for diag in range(2 * size - 1):
        wave = []
        for i in range(diag + 1):
            j = diag - i
            if i < size and j < size:
                wave.append((i, j))
        if diag % 2 == 0:
            wave.reverse()
        positions.extend(wave)
    return positions


class ScanOrder(tuple):
    """Block positions ``(row, column)`` in scan order.

    A tuple of positions that also carries them as row and column index
    arrays, built once, so :func:`scan` and :func:`unscan` move a whole
    block with one fancy-indexing operation.
    """

    rows: np.ndarray
    cols: np.ndarray

    def __new__(cls, positions: Sequence[Tuple[int, int]]) -> "ScanOrder":
        order = super().__new__(cls, (tuple(position) for position in positions))
        order.rows = np.array([i for i, _ in order], dtype=np.intp)
        order.cols = np.array([j for _, j in order], dtype=np.intp)
        order.rows.flags.writeable = order.cols.flags.writeable = False
        return order


ZIGZAG_8X8 = ScanOrder(_zigzag_positions(8))
ZIGZAG_4X4 = ScanOrder(_zigzag_positions(4))
ZIGZAG_2X2 = ScanOrder(((0, 0), (0, 1), (1, 0), (1, 1)))


def scan(block: np.ndarray, order: Sequence[Tuple[int, int]]) -> List[int]:
    """Serialise ``block`` in the given scan order."""
    if not isinstance(order, ScanOrder):
        order = ScanOrder(order)
    return block[order.rows, order.cols].tolist()


def unscan(values: Sequence[int], order: Sequence[Tuple[int, int]], size: int) -> np.ndarray:
    """Rebuild a ``size`` x ``size`` block from scan-ordered ``values``.

    Positions past the end of a short ``values`` stay zero.
    """
    if not isinstance(order, ScanOrder):
        order = ScanOrder(order)
    block = np.zeros((size, size), dtype=np.int64)
    count = min(len(values), len(order))
    block[order.rows[:count], order.cols[:count]] = values[:count]
    return block


def scan8(block: np.ndarray) -> List[int]:
    return scan(block, ZIGZAG_8X8)


def unscan8(values: Sequence[int]) -> np.ndarray:
    return unscan(values, ZIGZAG_8X8, 8)


def scan4(block: np.ndarray) -> List[int]:
    return scan(block, ZIGZAG_4X4)


def unscan4(values: Sequence[int]) -> np.ndarray:
    return unscan(values, ZIGZAG_4X4, 4)
