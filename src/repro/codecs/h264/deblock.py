"""H.264 in-loop deblocking filter.

Runs over a reconstructed frame after the macroblock loop, smoothing block
edges with a strength (bS) derived from coding decisions: 4 across intra
macroblock boundaries (strong filter), 3 inside intra macroblocks, 2 where
either side has coded residual, 1 where motion differs by a pixel or more
or references differ, 0 (no filtering) otherwise.  Both encoder and decoder
apply the filter identically before a frame is used as a reference, so
prediction never drifts.

Edge-processing order: all vertical edges of the frame left-to-right (each
the full picture height), then all horizontal edges top-to-bottom (each
the full picture width).  This differs from the spec's per-macroblock
order but is self-consistent between encoder and decoder, and it exposes
whole-edge vectors to the kernels — exactly the data-parallel layout the
paper's SIMD deblocking kernels exploit.  The per-line sample arithmetic
lives in the kernel backends (``deblock_normal`` / ``deblock_strong``).

bS comes from grids, once per picture.  :class:`DeblockMeta` keeps one
NumPy grid per field of a 4x4 luma cell (intra, coded residual, MV x, MV
y, reference), which the macroblock loop writes by slice.  Before any
sample is filtered, :meth:`DeblockMeta.strengths` turns the grids into the
bS of every vertical and every horizontal edge segment with a few array
operations.  A chroma segment reads every second luma cell of its edge,
and each edge's bS becomes per-sample ``c0`` by ``np.repeat`` through a
per-QP lookup.  :func:`boundary_strength` states the rule for one pair of
cells; it is the reference the grid computation is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.codecs.frames import WorkingFrame
from repro.kernels.tables import DEBLOCK_ALPHA, DEBLOCK_BETA, DEBLOCK_TC0
from repro.me.types import MotionVector


@dataclass(frozen=True)
class CellState:
    """Deblocking-relevant state of one 4x4 luma cell (see :func:`boundary_strength`)."""

    intra: bool
    nonzero: bool
    mv: MotionVector = MotionVector(0, 0)
    ref: int = 0


class DeblockMeta:
    """Per-picture deblocking state: one NumPy grid per field, one entry per 4x4 luma cell.

    ``intra``, ``nonzero``, ``mv_x``, ``mv_y`` and ``ref`` are indexed
    ``[by, bx]``.  Every cell starts intra with coded residual.
    """

    def __init__(self, mb_width: int, mb_height: int) -> None:
        shape = (4 * mb_height, 4 * mb_width)
        self.intra = np.ones(shape, dtype=bool)
        self.nonzero = np.ones(shape, dtype=bool)
        self.mv_x = np.zeros(shape, dtype=np.int64)
        self.mv_y = np.zeros(shape, dtype=np.int64)
        self.ref = np.zeros(shape, dtype=np.int64)

    def mark_intra_mb(self, mbx: int, mby: int) -> None:
        cells = np.s_[4 * mby : 4 * mby + 4, 4 * mbx : 4 * mbx + 4]
        self.intra[cells] = True
        self.nonzero[cells] = True
        self.mv_x[cells] = self.mv_y[cells] = self.ref[cells] = 0

    def set_nonzero(self, bx: int, by: int, nonzero: bool) -> None:
        self.nonzero[by, bx] = nonzero

    def mark_inter(self, bx: int, by: int, cells_x: int, cells_y: int,
                   mv: MotionVector, ref: int) -> None:
        cells = np.s_[by : by + cells_y, bx : bx + cells_x]
        self.intra[cells] = False
        self.nonzero[cells] = False
        self.mv_x[cells] = mv.x
        self.mv_y[cells] = mv.y
        self.ref[cells] = ref

    def strengths(self) -> Tuple[np.ndarray, np.ndarray]:
        """bS of every luma edge segment: ``(vertical, horizontal)``.

        ``vertical[by, e - 1]`` is the bS of the segment of cell row ``by``
        on the edge left of cell column ``e``; ``horizontal[e - 1, bx]``
        that of cell column ``bx`` on the edge above cell row ``e``.  Each
        equals :func:`boundary_strength` of the two cells it separates.
        """
        grids = (self.intra, self.nonzero, self.mv_x, self.mv_y, self.ref)
        vertical = _strengths_across_columns(*grids)
        horizontal = _strengths_across_columns(*(grid.T for grid in grids)).T
        return vertical, horizontal


def chroma_strengths(vertical: np.ndarray,
                     horizontal: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The chroma planes' bS grids, laid out as :meth:`DeblockMeta.strengths`.

    A chroma edge lies on every second luma edge, and each of its 4-sample
    segments spans two luma cells, of which the first decides the bS.
    """
    return vertical[::2, 1::2], horizontal[1::2, ::2]


def _strengths_across_columns(intra: np.ndarray, nonzero: np.ndarray, mv_x: np.ndarray,
                              mv_y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """bS between every cell and its left neighbour, shape ``(rows, cols - 1)``."""
    p, q = np.s_[:, :-1], np.s_[:, 1:]
    strengths = (
        (ref[p] != ref[q])
        | (np.abs(mv_x[p] - mv_x[q]) >= 4)
        | (np.abs(mv_y[p] - mv_y[q]) >= 4)
    ).astype(np.int64)
    strengths[nonzero[p] | nonzero[q]] = 2
    intra_edge = intra[p] | intra[q]
    strengths[intra_edge] = 3
    mb_edge = np.arange(1, intra.shape[1]) % 4 == 0
    strengths[intra_edge & mb_edge] = 4
    return strengths


def boundary_strength(p: CellState, q: CellState, mb_edge: bool) -> int:
    """The bS of the edge between cells ``p`` and ``q``."""
    if p.intra or q.intra:
        return 4 if mb_edge else 3
    if p.nonzero or q.nonzero:
        return 2
    if p.ref != q.ref:
        return 1
    if abs(p.mv.x - q.mv.x) >= 4 or abs(p.mv.y - q.mv.y) >= 4:
        return 1
    return 0


class DeblockFilter:
    """Applies the loop filter to one reconstructed frame."""

    def __init__(self, kernels, qp: int) -> None:
        self.kernels = kernels
        self.alpha = int(DEBLOCK_ALPHA[qp])
        self.beta = int(DEBLOCK_BETA[qp])
        tc0 = DEBLOCK_TC0[qp]
        #: c0 per bS: the tc0 of bS 1..3, and -1 (not filtered normally) for 0 and 4.
        self.c0_of_bs = np.array([-1, tc0[1], tc0[2], tc0[3], -1], dtype=np.int64)

    def apply(self, frame: WorkingFrame, meta: DeblockMeta) -> None:
        """Filter ``frame`` in place (then invalidates its padding caches)."""
        if self.alpha == 0 or self.beta == 0:
            return
        vertical, horizontal = meta.strengths()
        self._filter_plane(frame.y, vertical, horizontal, chroma=False)
        chroma_vertical, chroma_horizontal = chroma_strengths(vertical, horizontal)
        for plane_name in ("u", "v"):
            self._filter_plane(frame.plane(plane_name), chroma_vertical,
                               chroma_horizontal, chroma=True)
        frame.invalidate_padding()

    # ------------------------------------------------------------------

    def _filter_plane(self, plane: np.ndarray, vertical: np.ndarray,
                      horizontal: np.ndarray, chroma: bool) -> None:
        """Filter every vertical edge left to right, then every horizontal one top to bottom.

        Column ``e - 1`` of ``vertical`` (row ``e - 1`` of ``horizontal``)
        holds the per-segment bS of the edge at sample ``4 * e``.
        """
        for index, strengths in enumerate(vertical.T):
            self._filter_edge(plane, strengths, 4 * (index + 1), vertical=True, chroma=chroma)
        for index, strengths in enumerate(horizontal):
            self._filter_edge(plane, strengths, 4 * (index + 1), vertical=False, chroma=chroma)

    def _filter_edge(self, plane: np.ndarray, strengths: np.ndarray, position: int,
                     vertical: bool, chroma: bool) -> None:
        if not strengths.any():
            return
        c0 = self.c0_of_bs[strengths]
        if (c0 >= 0).any():
            self._normal_edge(plane, position, vertical, np.repeat(c0, 4), chroma)
        strong = strengths == 4
        if strong.any():
            mask = np.repeat(strong.astype(np.int64), 4)
            self._strong_edge(plane, position, vertical, mask, chroma)

    # ------------------------------------------------------------------

    def _gather(self, plane: np.ndarray, position: int, vertical: bool,
                depth: int) -> List[np.ndarray]:
        """Sample lines p{depth-1}..p0, q0..q{depth-1} across the edge."""
        lines = []
        for offset in range(-depth, depth):
            if vertical:
                lines.append(plane[:, position + offset].copy())
            else:
                lines.append(plane[position + offset, :].copy())
        return lines

    def _scatter(self, plane: np.ndarray, position: int, vertical: bool,
                 offsets: Tuple[int, ...], lines) -> None:
        for offset, line in zip(offsets, lines):
            if vertical:
                plane[:, position + offset] = line
            else:
                plane[position + offset, :] = line

    def _normal_edge(self, plane: np.ndarray, position: int, vertical: bool,
                     c0: np.ndarray, chroma: bool) -> None:
        p2, p1, p0, q0, q1, q2 = self._gather(plane, position, vertical, 3)
        out_p1, out_p0, out_q0, out_q1 = self.kernels.deblock_normal(
            p2, p1, p0, q0, q1, q2, self.alpha, self.beta, c0, chroma
        )
        self._scatter(plane, position, vertical, (-2, -1, 0, 1),
                      (out_p1, out_p0, out_q0, out_q1))

    def _strong_edge(self, plane: np.ndarray, position: int, vertical: bool,
                     mask: np.ndarray, chroma: bool) -> None:
        p3, p2, p1, p0, q0, q1, q2, q3 = self._gather(plane, position, vertical, 4)
        out = self.kernels.deblock_strong(
            p3, p2, p1, p0, q0, q1, q2, q3, self.alpha, self.beta, mask, chroma
        )
        self._scatter(plane, position, vertical, (-3, -2, -1, 0, 1, 2), out)
