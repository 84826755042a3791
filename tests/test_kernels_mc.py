"""Behavioural tests for the motion-compensation/interpolation kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import BACKEND_NAMES, get_kernels
from repro.mc.pad import pad_plane


def gradient_plane(size: int = 32) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size]
    return (4 * xs + 2 * ys).astype(np.int64)


def random_plane(size: int = 32, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, (size, size)).astype(np.int64)


class TestHalfPel:
    def test_integer_mv_is_plain_copy(self, kernels):
        plane = random_plane()
        block = kernels.mc_halfpel(plane, 8, 8, 4, 4, 4, -2)
        assert np.array_equal(block, plane[7:11, 10:14])

    def test_horizontal_half_is_average(self, kernels):
        plane = random_plane(seed=1)
        block = kernels.mc_halfpel(plane, 8, 8, 4, 4, 1, 0)
        expected = (plane[8:12, 8:12] + plane[8:12, 9:13] + 1) >> 1
        assert np.array_equal(block, expected)

    def test_vertical_half_is_average(self, kernels):
        plane = random_plane(seed=2)
        block = kernels.mc_halfpel(plane, 8, 8, 4, 4, 0, 1)
        expected = (plane[8:12, 8:12] + plane[9:13, 8:12] + 1) >> 1
        assert np.array_equal(block, expected)

    def test_diagonal_half_four_tap(self, kernels):
        plane = random_plane(seed=3)
        block = kernels.mc_halfpel(plane, 8, 8, 2, 2, 1, 1)
        expected = (
            plane[8:10, 8:10] + plane[8:10, 9:11]
            + plane[9:11, 8:10] + plane[9:11, 9:11]
            + 2
        ) >> 2
        assert np.array_equal(block, expected)

    def test_constant_plane_invariant(self, kernels):
        plane = np.full((32, 32), 77, dtype=np.int64)
        for mv in ((1, 1), (3, -5), (0, 7)):
            block = kernels.mc_halfpel(plane, 10, 10, 8, 8, *mv)
            assert np.all(block == 77)


class TestQpelBilinear:
    def test_integer_positions(self, kernels):
        plane = random_plane(seed=4)
        block = kernels.mc_qpel_bilinear(plane, 8, 8, 4, 4, 8, -4)
        assert np.array_equal(block, plane[7:11, 10:14])

    def test_half_position_matches_halfpel(self, kernels):
        plane = random_plane(seed=5)
        qpel = kernels.mc_qpel_bilinear(plane, 8, 8, 4, 4, 2, 0)
        halfpel = kernels.mc_halfpel(plane, 8, 8, 4, 4, 1, 0)
        assert np.array_equal(qpel, halfpel)

    def test_quarter_on_gradient_is_exact(self, kernels):
        # Bilinear interpolation reproduces a linear ramp exactly.
        plane = gradient_plane()
        block = kernels.mc_qpel_bilinear(plane, 8, 8, 4, 4, 1, 0)
        expected = plane[8:12, 8:12] + 1  # 4*0.25 = 1 luma unit
        assert np.array_equal(block, expected)

    def test_constant_plane_invariant(self, kernels):
        plane = np.full((32, 32), 150, dtype=np.int64)
        for mvx in range(4):
            block = kernels.mc_qpel_bilinear(plane, 10, 10, 4, 4, mvx, 3)
            assert np.all(block == 150)


class TestQpelH264:
    def test_integer_positions(self, kernels):
        plane = random_plane(seed=6)
        block = kernels.mc_qpel_h264(plane, 10, 10, 4, 4, -8, 12)
        assert np.array_equal(block, plane[13:17, 8:12])

    def test_constant_plane_invariant_all_positions(self, kernels):
        plane = np.full((40, 40), 200, dtype=np.int64)
        for fy in range(4):
            for fx in range(4):
                block = kernels.mc_qpel_h264(plane, 16, 16, 4, 4, fx, fy)
                assert np.all(block == 200), (fx, fy)

    def test_output_clipped_to_pixel_range(self, kernels):
        # A harsh checkerboard can drive the six-tap filter out of range
        # before clipping.
        plane = np.zeros((40, 40), dtype=np.int64)
        plane[::2, ::2] = 255
        plane[1::2, 1::2] = 255
        for fx, fy in ((2, 0), (0, 2), (2, 2), (1, 3)):
            block = kernels.mc_qpel_h264(plane, 16, 16, 8, 8, fx, fy)
            assert np.all(block >= 0)
            assert np.all(block <= 255)

    def test_half_pel_is_six_tap(self, kernels):
        plane = random_plane(seed=7, size=40)
        block = kernels.mc_qpel_h264(plane, 16, 16, 1, 1, 2, 0)
        row = plane[16, 14:20]
        raw = row[0] - 5 * row[1] + 20 * row[2] + 20 * row[3] - 5 * row[4] + row[5]
        expected = min(255, max(0, (int(raw) + 16) >> 5))
        assert int(block[0, 0]) == expected

    def test_quarter_pel_averages_neighbours(self, kernels):
        plane = random_plane(seed=8, size=40)
        integer = kernels.mc_qpel_h264(plane, 16, 16, 4, 4, 0, 0)
        half = kernels.mc_qpel_h264(plane, 16, 16, 4, 4, 2, 0)
        quarter = kernels.mc_qpel_h264(plane, 16, 16, 4, 4, 1, 0)
        assert np.array_equal(quarter, (integer + half + 1) >> 1)


class TestChromaBilinear8:
    def test_integer_positions(self, kernels):
        plane = random_plane(seed=9)
        block = kernels.mc_chroma_bilinear8(plane, 8, 8, 4, 4, 16, -8)
        assert np.array_equal(block, plane[7:11, 10:14])

    def test_gradient_exact(self, kernels):
        plane = gradient_plane()
        block = kernels.mc_chroma_bilinear8(plane, 8, 8, 4, 4, 2, 0)
        expected = plane[8:12, 8:12] + 1  # 4 * 2/8 = 1
        assert np.array_equal(block, expected)

    def test_constant_plane_invariant(self, kernels):
        plane = np.full((24, 24), 99, dtype=np.int64)
        for mvx in range(8):
            block = kernels.mc_chroma_bilinear8(plane, 8, 8, 4, 4, mvx, 5)
            assert np.all(block == 99)


class TestGetBlockAndAverage:
    def test_get_block_copies(self, kernels):
        plane = random_plane(seed=10)
        block = kernels.get_block(plane, 4, 6, 8, 8)
        assert np.array_equal(block, plane[6:14, 4:12])
        block[0, 0] = -1
        assert plane[6, 4] != -1

    def test_average_rounds_up(self, kernels):
        a = np.array([[1]], dtype=np.int64)
        b = np.array([[2]], dtype=np.int64)
        assert int(kernels.average(a, b)[0, 0]) == 2


# -- phase planes --------------------------------------------------------

SEARCH_RANGE = 4
FRAME = 40
#: Fractional positions per pel of each interpolation kernel.
UNITS = {"mc_halfpel": 2, "mc_qpel_bilinear": 4, "mc_qpel_h264": 4}
SIZES = (4, 8, 16)
#: Farthest integer-pel reach of a refined vector: the search range plus
#: the sub-pel steps around its edge.
REACH = SEARCH_RANGE + 1


@pytest.fixture(scope="module", params=BACKEND_NAMES)
def reference(request):
    """A backend and one padded plane, shared so each phase plane is built once."""
    return get_kernels(request.param), pad_plane(random_plane(FRAME, seed=12), SEARCH_RANGE)


def assert_slice_is_kernel_output(reference, kernel, x, y, width, height, mvx, mvy):
    kernels, padded = reference
    px, py = padded.offset(x, y)
    block = padded.subpel_block(kernels, kernel, UNITS[kernel], px, py, width, height, mvx, mvy)
    expected = getattr(kernels, kernel)(padded.plane, px, py, width, height, mvx, mvy)
    assert block.dtype == np.uint8
    assert block.shape == expected.shape == (height, width)
    assert np.array_equal(block, expected), (kernel, x, y, width, height, mvx, mvy)


def corner_cases(kernel, fx, fy):
    """Every block size at every picture corner, its vector reaching outwards."""
    unit = UNITS[kernel]
    for width in SIZES:
        for height in SIZES:
            for right in (False, True):
                for bottom in (False, True):
                    x = FRAME - width if right else 0
                    y = FRAME - height if bottom else 0
                    mvx = (REACH if right else -REACH) * unit + fx
                    mvy = (REACH if bottom else -REACH) * unit + fy
                    yield x, y, width, height, mvx, mvy


@st.composite
def phase_cases(draw):
    kernel = draw(st.sampled_from(sorted(UNITS)))
    reach = REACH * UNITS[kernel]
    width, height = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SIZES))
    x = draw(st.one_of(st.sampled_from((0, FRAME - width)), st.integers(0, FRAME - width)))
    y = draw(st.one_of(st.sampled_from((0, FRAME - height)), st.integers(0, FRAME - height)))
    mvx = draw(st.integers(-reach, reach + UNITS[kernel] - 1))
    mvy = draw(st.integers(-reach, reach + UNITS[kernel] - 1))
    return kernel, x, y, width, height, mvx, mvy


class TestPhasePlanes:
    """A phase-plane slice equals the per-block kernel's output, bit for bit."""

    @given(phase_cases())
    @settings(max_examples=150, deadline=None)
    def test_slice_equals_kernel(self, reference, case):
        assert_slice_is_kernel_output(reference, *case)

    @pytest.mark.parametrize("kernel", sorted(UNITS))
    def test_every_phase_at_the_corners(self, reference, kernel):
        unit = UNITS[kernel]
        for fy in range(unit):
            for fx in range(unit):
                cases = list(corner_cases(kernel, fx, fy))
                # One block size per phase and corner keeps the scalar run short;
                # the named H.264 cases below sweep all of them.
                for case in cases[(fx + unit * fy) % 9 :: 9]:
                    assert_slice_is_kernel_output(reference, kernel, *case)

    @pytest.mark.parametrize("fx,fy", [
        pytest.param(2, 2, id="j-centre-unclipped-intermediates"),
        pytest.param(2, 1, id="f-avg-b-j"),
        pytest.param(2, 3, id="q-avg-s-j"),
        pytest.param(1, 2, id="i-avg-h-j"),
        pytest.param(3, 2, id="k-avg-m-j"),
    ])
    def test_h264_centre_family(self, reference, fx, fy):
        for case in corner_cases("mc_qpel_h264", fx, fy):
            assert_slice_is_kernel_output(reference, "mc_qpel_h264", *case)
