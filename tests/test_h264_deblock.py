"""Tests for the H.264 deblocking filter and its strength rules."""

import numpy as np
from hypothesis import given, strategies as st

from repro.codecs.frames import WorkingFrame
from repro.codecs.h264.deblock import (
    CellState,
    DeblockFilter,
    DeblockMeta,
    boundary_strength,
    chroma_strengths,
)
from repro.codecs.h264.motion import PARTITION_SHAPES
from repro.kernels import get_kernels
from repro.me.types import MotionVector

KERNELS = get_kernels("simd")


def intra_cell():
    return CellState(intra=True, nonzero=True)


def inter_cell(mv=(0, 0), ref=0, nonzero=False):
    return CellState(intra=False, nonzero=nonzero, mv=MotionVector(*mv), ref=ref)


class TestBoundaryStrength:
    def test_intra_at_mb_edge_is_4(self):
        assert boundary_strength(intra_cell(), inter_cell(), mb_edge=True) == 4

    def test_intra_internal_is_3(self):
        assert boundary_strength(intra_cell(), intra_cell(), mb_edge=False) == 3

    def test_coded_residual_is_2(self):
        assert boundary_strength(inter_cell(nonzero=True), inter_cell(), False) == 2

    def test_reference_mismatch_is_1(self):
        assert boundary_strength(inter_cell(ref=0), inter_cell(ref=1), False) == 1

    def test_large_mv_difference_is_1(self):
        assert boundary_strength(inter_cell(mv=(0, 0)), inter_cell(mv=(4, 0)), False) == 1

    def test_small_mv_difference_is_0(self):
        assert boundary_strength(inter_cell(mv=(0, 0)), inter_cell(mv=(3, 3)), False) == 0

    def test_matching_inter_is_0(self):
        cell = inter_cell(mv=(8, -4))
        assert boundary_strength(cell, cell, False) == 0


class TestMeta:
    def test_default_is_intra(self):
        meta = DeblockMeta(2, 2)
        assert meta.intra[0, 0]
        assert meta.nonzero[0, 0]

    def test_mark_inter_then_nonzero(self):
        meta = DeblockMeta(2, 2)
        meta.mark_inter(0, 0, 4, 4, MotionVector(4, 0), 1)
        assert not meta.intra[2, 2]
        assert meta.ref[2, 2] == 1
        meta.set_nonzero(2, 2, True)
        assert meta.nonzero[2, 2]
        assert (meta.mv_x[2, 2], meta.mv_y[2, 2]) == (4, 0)

    def test_mark_intra_mb(self):
        meta = DeblockMeta(2, 2)
        meta.mark_inter(0, 0, 8, 8, MotionVector(0, 0), 0)
        meta.mark_intra_mb(1, 1)
        assert meta.intra[4, 4]
        assert not meta.intra[0, 0]


class ShadowMeta:
    """The per-cell ``CellState`` model the grids replace, for comparison."""

    def __init__(self, mb_width, mb_height):
        self.width, self.height = 4 * mb_width, 4 * mb_height
        self.cells = {(bx, by): intra_cell()
                      for by in range(self.height) for bx in range(self.width)}

    def mark_intra_mb(self, mbx, mby):
        for by in range(4 * mby, 4 * mby + 4):
            for bx in range(4 * mbx, 4 * mbx + 4):
                self.cells[bx, by] = intra_cell()

    def mark_inter(self, bx, by, cells_x, cells_y, mv, ref):
        for row in range(by, min(by + cells_y, self.height)):
            for col in range(bx, min(bx + cells_x, self.width)):
                self.cells[col, row] = CellState(False, False, mv, ref)

    def set_nonzero(self, bx, by, nonzero):
        old = self.cells[bx, by]
        self.cells[bx, by] = CellState(old.intra, nonzero, old.mv, old.ref)


@st.composite
def marked_metas(draw):
    """A grid and its shadow, written by the same random macroblock-layer calls.

    Each macroblock, in raster order, is marked intra or marked inter
    partition by partition, and then a few of its cells get coded residual.
    """
    mb_width, mb_height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    meta, shadow = DeblockMeta(mb_width, mb_height), ShadowMeta(mb_width, mb_height)
    # MV components 0..5: differences on both sides of the bS-1 threshold of 4.
    component = st.integers(0, 5)
    for mby in range(mb_height):
        for mbx in range(mb_width):
            if draw(st.integers(0, 3)) == 0:
                meta.mark_intra_mb(mbx, mby)
                shadow.mark_intra_mb(mbx, mby)
                continue
            for off_x, off_y, width, height in PARTITION_SHAPES[draw(st.sampled_from(
                    sorted(PARTITION_SHAPES)))]:
                args = (4 * mbx + off_x // 4, 4 * mby + off_y // 4, width // 4, height // 4,
                        MotionVector(draw(component), draw(component)), draw(st.integers(0, 2)))
                meta.mark_inter(*args)
                shadow.mark_inter(*args)
            for cell in draw(st.sets(st.integers(0, 15), max_size=4)):
                args = (4 * mbx + cell % 4, 4 * mby + cell // 4, draw(st.booleans()))
                meta.set_nonzero(*args)
                shadow.set_nonzero(*args)
    return meta, shadow


def reference_strengths(shadow, scale, vertical):
    """Per-edge bS as the per-segment loop computed it, sample position by position.

    ``scale`` maps plane samples to luma samples: 1 for luma, 2 for chroma.
    Row ``e - 1`` lists the segments of the edge at sample ``4 * e``.
    """
    plane_width, plane_height = 4 * shadow.width // scale, 4 * shadow.height // scale
    edges, length = (plane_width, plane_height) if vertical else (plane_height, plane_width)
    rows = []
    for position in range(4, edges, 4):
        edge_cell = position * scale // 4
        row = []
        for segment in range(length // 4):
            along_cell = segment * 4 * scale // 4
            if vertical:
                p, q = (edge_cell - 1, along_cell), (edge_cell, along_cell)
            else:
                p, q = (along_cell, edge_cell - 1), (along_cell, edge_cell)
            row.append(boundary_strength(shadow.cells[p], shadow.cells[q],
                                         mb_edge=position % (16 // scale) == 0))
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, length // 4)


class TestGridStrengths:
    """bS from the grids equals :func:`boundary_strength` edge by edge."""

    @given(marked_metas())
    def test_luma_and_chroma_strengths_match_reference(self, metas):
        meta, shadow = metas
        vertical, horizontal = meta.strengths()
        for (plane_vertical, plane_horizontal), scale in (
            ((vertical, horizontal), 1),
            (chroma_strengths(vertical, horizontal), 2),
        ):
            assert np.array_equal(plane_vertical.T, reference_strengths(shadow, scale, True))
            assert np.array_equal(plane_horizontal, reference_strengths(shadow, scale, False))


def step_frame(width=32, height=32, level_a=100, level_b=112) -> WorkingFrame:
    """A frame with a blocking-artifact-sized step at the MB boundary x=16.

    The step (12) sits below the alpha threshold at QP 30 (~25), so the
    filter treats it as a coding artifact; a much larger step would be
    protected as a real picture edge.
    """
    frame = WorkingFrame.blank(width, height)
    frame.y[:, :16] = level_a
    frame.y[:, 16:] = level_b
    frame.u[:, :8] = level_a
    frame.u[:, 8:] = level_b
    frame.v[:] = 128
    return frame


class TestFilterBehaviour:
    def test_intra_edge_smooths_step(self):
        frame = step_frame()
        meta = DeblockMeta(2, 2)  # all intra by default
        before = frame.y.copy()
        DeblockFilter(KERNELS, qp=30).apply(frame, meta)
        # The step at x=16 must be softened: boundary difference shrinks.
        assert abs(int(frame.y[8, 16]) - int(frame.y[8, 15])) < abs(
            int(before[8, 16]) - int(before[8, 15])
        )

    def test_bs0_leaves_frame_untouched(self):
        frame = step_frame()
        meta = DeblockMeta(2, 2)
        for mby in range(2):
            for mbx in range(2):
                meta.mark_inter(4 * mbx, 4 * mby, 4, 4, MotionVector(0, 0), 0)
        before = frame.y.copy()
        DeblockFilter(KERNELS, qp=30).apply(frame, meta)
        assert np.array_equal(frame.y, before)

    def test_low_qp_disables_filter(self):
        frame = step_frame()
        meta = DeblockMeta(2, 2)
        before = frame.y.copy()
        DeblockFilter(KERNELS, qp=10).apply(frame, meta)
        assert np.array_equal(frame.y, before)

    def test_flat_frame_unchanged(self):
        frame = WorkingFrame.blank(32, 32)
        frame.y[:] = 100
        meta = DeblockMeta(2, 2)
        DeblockFilter(KERNELS, qp=35).apply(frame, meta)
        assert np.all(frame.y == 100)

    def test_strong_edge_gradient_preserved_far_from_edge(self):
        frame = step_frame()
        meta = DeblockMeta(2, 2)
        DeblockFilter(KERNELS, qp=30).apply(frame, meta)
        # Samples >3 px from any edge cannot change.
        assert int(frame.y[8, 20]) == 112

    def test_chroma_filtered_on_intra_edges(self):
        frame = step_frame()
        meta = DeblockMeta(2, 2)
        before_u = frame.u.copy()
        DeblockFilter(KERNELS, qp=30).apply(frame, meta)
        assert not np.array_equal(frame.u, before_u)

    def test_scalar_and_simd_agree_on_frame(self):
        rng = np.random.default_rng(1)
        frames = []
        for backend in ("scalar", "simd"):
            frame = WorkingFrame.blank(32, 32)
            frame.y[:] = rng.integers(0, 256, (32, 32))
            rng = np.random.default_rng(1)  # reset for identical input
            frame.y[:] = np.random.default_rng(2).integers(0, 256, (32, 32))
            frame.u[:] = np.random.default_rng(3).integers(0, 256, (16, 16))
            frame.v[:] = np.random.default_rng(4).integers(0, 256, (16, 16))
            meta = DeblockMeta(2, 2)
            meta.mark_inter(0, 0, 4, 4, MotionVector(0, 0), 0)
            meta.set_nonzero(3, 1, True)
            DeblockFilter(get_kernels(backend), qp=32).apply(frame, meta)
            frames.append(frame)
        assert np.array_equal(frames[0].y, frames[1].y)
        assert np.array_equal(frames[0].u, frames[1].u)
        assert np.array_equal(frames[0].v, frames[1].v)

    def test_padding_cache_invalidated(self):
        frame = step_frame()
        padded_before = frame.padded("y", 4)
        meta = DeblockMeta(2, 2)
        DeblockFilter(KERNELS, qp=30).apply(frame, meta)
        padded_after = frame.padded("y", 4)
        assert padded_after is not padded_before
