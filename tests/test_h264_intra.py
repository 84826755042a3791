"""Tests for H.264 intra prediction and the encoder's intra mode decisions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.codecs.frames import WorkingFrame
from repro.codecs.h264 import encoder as h264_encoder
from repro.codecs.h264.intra import (
    BLOCK_MODES,
    DC_MODE_INDEX,
    LUMA4_MODES,
    available_block_modes,
    available_luma4_modes,
    predict_block,
    predict_block_stack,
    predict_luma4,
    predict_luma4_stack,
)
from repro.errors import CodecError
from repro.kernels import get_kernels
from repro.me.cost import lambda_from_qp

BACKENDS = (get_kernels("scalar"), get_kernels("simd"))


def plane_with_neighbours(size: int = 24, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, (size, size)).astype(np.int64)


class TestAvailability:
    def test_corner_block_is_dc_only(self):
        assert available_luma4_modes(False, False) == ["DC"]
        assert available_block_modes(False, False) == ["DC"]

    def test_top_row(self):
        modes = available_luma4_modes(True, False)
        assert "V" in modes and "DDL" in modes
        assert "H" not in modes and "DDR" not in modes

    def test_left_column(self):
        modes = available_luma4_modes(False, True)
        assert "H" in modes and "V" not in modes

    def test_interior_has_all(self):
        assert set(available_luma4_modes(True, True)) == set(LUMA4_MODES)
        assert set(available_block_modes(True, True)) == set(BLOCK_MODES)

    def test_dc_mode_index(self):
        assert LUMA4_MODES[DC_MODE_INDEX] == "DC"


class TestLuma4Modes:
    def test_vertical_copies_top(self):
        plane = plane_with_neighbours()
        pred = predict_luma4(plane, 8, 8, "V")
        for row in range(4):
            assert np.array_equal(pred[row], plane[7, 8:12])

    def test_horizontal_copies_left(self):
        plane = plane_with_neighbours(seed=1)
        pred = predict_luma4(plane, 8, 8, "H")
        for col in range(4):
            assert np.array_equal(pred[:, col], plane[8:12, 7])

    def test_dc_is_mean_of_neighbours(self):
        plane = np.full((16, 16), 80, dtype=np.int64)
        plane[7, 8:12] = 100
        plane[8:12, 7] = 60
        pred = predict_luma4(plane, 8, 8, "DC")
        assert np.all(pred == 80)  # (4*100 + 4*60 + 4) // 8

    def test_dc_without_neighbours_is_128(self):
        plane = plane_with_neighbours(seed=2)
        pred = predict_luma4(plane, 0, 0, "DC")
        assert np.all(pred == 128)

    def test_dc_top_only(self):
        plane = np.zeros((8, 8), dtype=np.int64)
        plane[3, :] = 40
        pred = predict_luma4(plane, 0, 4, "DC")
        assert np.all(pred == 40)

    def test_ddl_flat_on_flat_top(self):
        plane = np.full((16, 16), 55, dtype=np.int64)
        pred = predict_luma4(plane, 8, 8, "DDL")
        assert np.all(pred == 55)

    def test_ddr_diagonal_structure(self):
        plane = np.full((16, 16), 10, dtype=np.int64)
        plane[7, 7] = 200  # corner sample
        pred = predict_luma4(plane, 8, 8, "DDR")
        # The corner feeds the main diagonal.
        assert pred[0, 0] > pred[0, 3]
        assert pred[1, 1] > pred[0, 3]

    def test_unknown_mode_raises(self):
        with pytest.raises(CodecError):
            predict_luma4(plane_with_neighbours(), 8, 8, "PLANE")

    def test_outputs_in_pixel_range(self):
        plane = plane_with_neighbours(seed=3)
        for mode in LUMA4_MODES:
            pred = predict_luma4(plane, 8, 8, mode)
            assert np.all(pred >= 0) and np.all(pred <= 255)
            assert pred.shape == (4, 4)


class TestBlockModes:
    @pytest.mark.parametrize("size", [8, 16])
    def test_vertical(self, size):
        plane = plane_with_neighbours(size=2 * size + 8, seed=4)
        pred = predict_block(plane, size, size, size, "V")
        for row in range(size):
            assert np.array_equal(pred[row], plane[size - 1, size : 2 * size])

    @pytest.mark.parametrize("size", [8, 16])
    def test_horizontal(self, size):
        plane = plane_with_neighbours(size=2 * size + 8, seed=5)
        pred = predict_block(plane, size, size, size, "H")
        for col in range(size):
            assert np.array_equal(pred[:, col], plane[size : 2 * size, size - 1])

    def test_dc_flat(self):
        plane = np.full((48, 48), 90, dtype=np.int64)
        pred = predict_block(plane, 16, 16, 16, "DC")
        assert np.all(pred == 90)

    def test_plane_reproduces_linear_ramp(self):
        ys, xs = np.mgrid[0:64, 0:64]
        plane = (2 * xs + 3 * ys).astype(np.int64)
        pred = predict_block(plane, 16, 16, 16, "PLANE")
        actual = plane[16:32, 16:32]
        assert np.max(np.abs(pred - actual)) <= 4

    def test_plane_8x8_chroma(self):
        ys, xs = np.mgrid[0:32, 0:32]
        plane = (xs + ys).astype(np.int64)
        pred = predict_block(plane, 8, 8, 8, "PLANE")
        actual = plane[8:16, 8:16]
        assert np.max(np.abs(pred - actual)) <= 3

    def test_plane_clipped(self):
        plane = np.zeros((48, 48), dtype=np.int64)
        plane[:, 15] = 255
        plane[15, :] = 255
        pred = predict_block(plane, 16, 16, 16, "PLANE")
        assert np.all(pred >= 0) and np.all(pred <= 255)

    def test_unknown_mode_raises(self):
        with pytest.raises(CodecError):
            predict_block(plane_with_neighbours(), 8, 8, 8, "DDL")


@st.composite
def sample_planes(draw, height: int, width: int):
    """A plane of random samples, one flat value, or 0/255 steps (steep
    enough to drive the plane mode into its clip)."""
    kind = draw(st.sampled_from(("random", "flat", "steps", "extremes")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        return rng.integers(0, 256, (height, width)).astype(np.int64)
    if kind == "flat":
        return np.full((height, width), draw(st.integers(0, 255)), dtype=np.int64)
    if kind == "steps":
        ys, xs = np.mgrid[0:height, 0:width]
        column, row = draw(st.integers(0, width)), draw(st.integers(0, height))
        return 255 * ((xs >= column) ^ (ys >= row)).astype(np.int64)
    return 255 * rng.integers(0, 2, (height, width)).astype(np.int64)


def per_mode_stack(plane, x, y, size):
    """Today's per-mode predictions of one block, in availability order."""
    if size == 4:
        modes = available_luma4_modes(y > 0, x > 0)
        return np.stack([predict_luma4(plane, x, y, mode) for mode in modes])
    modes = available_block_modes(y > 0, x > 0)
    return np.stack([predict_block(plane, x, y, size, mode) for mode in modes])


def stacked(plane, x, y, size):
    if size == 4:
        return predict_luma4_stack(plane, x, y)
    return predict_block_stack(plane, x, y, size)


class TestStackedPredictors:
    """Each stacked predictor equals the per-mode predictors, mode by mode."""

    @pytest.mark.parametrize("size", [4, 8, 16])
    @given(data=st.data())
    def test_stack_matches_per_mode(self, size, data):
        plane = data.draw(sample_planes(3 * size, 3 * size))
        # Columns and rows 0, size and 2 * size: all four availability cases.
        for y in range(0, 3 * size, size):
            for x in range(0, 3 * size, size):
                stack = stacked(plane, x, y, size)
                assert stack.dtype == np.int64
                np.testing.assert_array_equal(stack, per_mode_stack(plane, x, y, size))

    @pytest.mark.parametrize("size", [8, 16])
    def test_plane_clips_at_steps(self, size):
        # The row above steps down from 255 to 0 half way along, the column
        # to the left up from 0 to 255: the ramp falls below 0 at the top
        # right and passes 255 at the bottom left.
        plane = np.zeros((2 * size, 2 * size), dtype=np.int64)
        plane[size - 1, : size + size // 2] = 255
        plane[size + size // 2 :, size - 1] = 255
        stack = predict_block_stack(plane, size, size, size)
        np.testing.assert_array_equal(stack, per_mode_stack(plane, size, size, size))
        assert (stack[-1] == 0).any() and (stack[-1] == 255).any()


# ----------------------------------------------------------------------
# the encoder's intra decisions against a per-candidate reference: one
# per-mode prediction and one ``sad`` per candidate, strict ``<``
# ----------------------------------------------------------------------


def reference_i4_mode(kernels, recon, source, x, y, mpm, lagrangian):
    best_mode, best_cost = None, None
    for mode in available_luma4_modes(y > 0, x > 0):
        prediction = predict_luma4(recon.y, x, y, mode)
        bits = 1 if LUMA4_MODES.index(mode) == mpm else 3
        cost = kernels.sad(source.y[y : y + 4, x : x + 4], prediction) + lagrangian * bits
        if best_cost is None or cost < best_cost:
            best_mode, best_cost = mode, cost
    return best_mode, best_cost


def reference_i4_estimate(kernels, source, mbx, mby, lagrangian):
    total = 4 * lagrangian
    x0, y0 = 16 * mbx, 16 * mby
    for index in range(16):
        x, y = x0 + 4 * (index % 4), y0 + 4 * (index // 4)
        block = source.y[y : y + 4, x : x + 4]
        candidates = []
        if y > 0:
            candidates.append(np.tile(source.y[y - 1, x : x + 4], (4, 1)))
        if x > 0:
            candidates.append(np.tile(source.y[y : y + 4, x - 1].reshape(4, 1), (1, 4)))
        candidates.append(np.full((4, 4), int(np.mean(block)), dtype=np.int64))
        total += min(kernels.sad(block, candidate) for candidate in candidates)
        total += lagrangian
    return total


def reference_i16_mode(kernels, recon, source, mbx, mby):
    x, y = 16 * mbx, 16 * mby
    best_mode, best_cost = None, None
    for mode in available_block_modes(y > 0, x > 0):
        prediction = predict_block(recon.y, x, y, 16, mode)
        cost = kernels.sad(source.y[y : y + 16, x : x + 16], prediction)
        if best_cost is None or cost < best_cost:
            best_mode, best_cost = mode, cost
    return best_mode, best_cost


def reference_chroma_mode(kernels, recon, source, mbx, mby):
    x, y = 8 * mbx, 8 * mby
    best_mode, best_cost = None, None
    for mode in available_block_modes(y > 0, x > 0):
        cost = 0
        for plane in ("u", "v"):
            prediction = predict_block(recon.plane(plane), x, y, 8, mode)
            cost += kernels.sad(source.plane(plane)[y : y + 8, x : x + 8], prediction)
        if best_cost is None or cost < best_cost:
            best_mode, best_cost = mode, cost
    return best_mode, best_cost


@st.composite
def pictures(draw):
    """A 3x3-macroblock picture: 48x48 luma, 24x24 chroma per plane."""
    planes = [draw(sample_planes(48, 48)), draw(sample_planes(24, 24)),
              draw(sample_planes(24, 24))]
    return WorkingFrame(*planes)


def macroblocks():
    """Every macroblock position of a 3x3-macroblock picture."""
    return [(mbx, mby) for mby in range(3) for mbx in range(3)]


class TestIntraDecisions:
    """Each stacked decision gives the reference loop's mode and cost, at
    every macroblock position (so every availability case) on both
    backends; on flat content every candidate ties and the first wins."""

    @given(pictures(), pictures(), st.integers(0, 51).map(lambda_from_qp), st.data())
    def test_i4_mode(self, recon, source, lagrangian, data):
        for mbx, mby in macroblocks():
            index = data.draw(st.integers(0, 15))
            x, y = 16 * mbx + 4 * (index % 4), 16 * mby + 4 * (index // 4)
            mpm = data.draw(st.integers(0, len(LUMA4_MODES) - 1))
            for kernels in BACKENDS:
                mode, cost, prediction = h264_encoder.best_i4_mode(
                    kernels, recon, source, x, y, mpm, lagrangian)
                assert (mode, cost) == reference_i4_mode(
                    kernels, recon, source, x, y, mpm, lagrangian)
                assert type(cost) is int
                np.testing.assert_array_equal(prediction, predict_luma4(recon.y, x, y, mode))

    @given(pictures(), st.integers(0, 51).map(lambda_from_qp))
    def test_i4_estimate(self, source, lagrangian):
        for mbx, mby in macroblocks():
            for kernels in BACKENDS:
                cost = h264_encoder.estimate_i4_cost(kernels, source, mbx, mby, lagrangian)
                assert cost == reference_i4_estimate(kernels, source, mbx, mby, lagrangian)
                assert type(cost) is int

    @given(pictures(), pictures())
    def test_i16_mode(self, recon, source):
        for mbx, mby in macroblocks():
            for kernels in BACKENDS:
                mode, cost, prediction = h264_encoder.best_i16_mode(
                    kernels, recon, source, mbx, mby)
                assert (mode, cost) == reference_i16_mode(kernels, recon, source, mbx, mby)
                assert type(cost) is int
                np.testing.assert_array_equal(
                    prediction, predict_block(recon.y, 16 * mbx, 16 * mby, 16, mode))

    @given(pictures(), pictures())
    def test_chroma_mode(self, recon, source):
        for mbx, mby in macroblocks():
            x, y = 8 * mbx, 8 * mby
            for kernels in BACKENDS:
                mode, cost, prediction = h264_encoder.best_chroma_mode(
                    kernels, recon, source, mbx, mby)
                assert (mode, cost) == reference_chroma_mode(kernels, recon, source, mbx, mby)
                assert type(cost) is int
                for plane, columns in (("u", slice(0, 8)), ("v", slice(8, 16))):
                    np.testing.assert_array_equal(
                        prediction[:, columns], predict_block(recon.plane(plane), x, y, 8, mode))

    @pytest.mark.parametrize("kernels", BACKENDS, ids=lambda kernels: kernels.name)
    def test_flat_ties_go_to_the_first_candidate(self, kernels):
        flat = WorkingFrame.blank(48, 48)
        for plane in ("y", "u", "v"):
            flat.plane(plane)[...] = 90
        for mbx, mby in macroblocks():
            interior = mbx > 0 and mby > 0
            i16 = h264_encoder.best_i16_mode(kernels, flat, flat, mbx, mby)
            chroma = h264_encoder.best_chroma_mode(kernels, flat, flat, mbx, mby)
            if interior:
                # Every candidate scores 0 and DC comes first.
                assert i16[:2] == ("DC", 0) and chroma[:2] == ("DC", 0)
            # With no mode most probable, every Intra 4x4 candidate costs
            # SAD 0 + 3 lagrangians.
            i4 = h264_encoder.best_i4_mode(kernels, flat, flat, 16 * mbx + 4, 16 * mby + 4,
                                           mpm=-1, lagrangian=5)
            assert i4[:2] == ("DC", 15)
