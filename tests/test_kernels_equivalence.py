"""Property tests: the scalar and SIMD kernel backends are bit-exact.

This is the invariant the whole scalar-vs-SIMD benchmark axis rests on
(the paper compares identical algorithms, optimised vs not).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.kernels import get_kernels

SCALAR = get_kernels("scalar")
SIMD = get_kernels("simd")


def blocks(size: int, low: int = -255, high: int = 255):
    return st.lists(
        st.lists(st.integers(low, high), min_size=size, max_size=size),
        min_size=size,
        max_size=size,
    ).map(lambda rows: np.array(rows, dtype=np.int64))


def pixel_blocks(size: int):
    return blocks(size, 0, 255)


def planes(height: int, width: int):
    return st.lists(
        st.lists(st.integers(0, 255), min_size=width, max_size=width),
        min_size=height,
        max_size=height,
    ).map(lambda rows: np.array(rows, dtype=np.int64))


def assert_same(a, b):
    assert np.array_equal(np.asarray(a), np.asarray(b))


def test_both_backends_implement_full_api():
    from repro.kernels.api import implements_kernel_api

    assert implements_kernel_api(SCALAR)
    assert implements_kernel_api(SIMD)


class TestCostKernels:
    @given(pixel_blocks(8), pixel_blocks(8))
    def test_sad(self, a, b):
        assert SCALAR.sad(a, b) == SIMD.sad(a, b)

    @given(pixel_blocks(8), pixel_blocks(8))
    def test_ssd(self, a, b):
        assert SCALAR.ssd(a, b) == SIMD.ssd(a, b)

    @given(pixel_blocks(4), pixel_blocks(4))
    def test_satd4(self, a, b):
        assert SCALAR.satd4(a, b) == SIMD.satd4(a, b)


class TestBlockArithmetic:
    @given(blocks(4), blocks(4))
    def test_sub(self, a, b):
        assert_same(SCALAR.sub(a, b), SIMD.sub(a, b))

    @given(pixel_blocks(4), blocks(4, -512, 512))
    def test_add_clip(self, pred, res):
        assert_same(SCALAR.add_clip(pred, res), SIMD.add_clip(pred, res))

    @given(pixel_blocks(8), pixel_blocks(8))
    def test_average(self, a, b):
        assert_same(SCALAR.average(a, b), SIMD.average(a, b))


class TestTransforms:
    @given(blocks(8))
    def test_fdct8(self, block):
        assert_same(SCALAR.fdct8(block), SIMD.fdct8(block))

    @given(blocks(8, -2048, 2048))
    def test_idct8(self, coeffs):
        assert_same(SCALAR.idct8(coeffs), SIMD.idct8(coeffs))

    @given(blocks(4))
    def test_fwd_transform4(self, block):
        assert_same(SCALAR.fwd_transform4(block), SIMD.fwd_transform4(block))

    @given(blocks(4, -30000, 30000))
    def test_inv_transform4(self, coeffs):
        assert_same(SCALAR.inv_transform4(coeffs), SIMD.inv_transform4(coeffs))

    @given(blocks(4, -4096, 4096))
    def test_hadamard4(self, block):
        assert_same(SCALAR.hadamard4_forward(block), SIMD.hadamard4_forward(block))
        assert_same(SCALAR.hadamard4_inverse(block), SIMD.hadamard4_inverse(block))

    @given(st.lists(st.lists(st.integers(-4096, 4096), min_size=2, max_size=2),
                    min_size=2, max_size=2).map(lambda r: np.array(r, dtype=np.int64)))
    def test_hadamard2(self, block):
        assert_same(SCALAR.hadamard2(block), SIMD.hadamard2(block))


class TestQuantisers:
    @given(blocks(8, -2040, 2040), st.integers(1, 31), st.booleans())
    def test_quant_mpeg(self, coeffs, qscale, intra):
        from repro.kernels.tables import MPEG_INTER_MATRIX, MPEG_INTRA_MATRIX

        matrix = MPEG_INTRA_MATRIX if intra else MPEG_INTER_MATRIX
        assert_same(
            SCALAR.quant_mpeg(coeffs, matrix, qscale, intra),
            SIMD.quant_mpeg(coeffs, matrix, qscale, intra),
        )

    @given(blocks(8, -600, 600), st.integers(1, 31), st.booleans())
    def test_dequant_mpeg(self, levels, qscale, intra):
        from repro.kernels.tables import MPEG_INTER_MATRIX, MPEG_INTRA_MATRIX

        matrix = MPEG_INTRA_MATRIX if intra else MPEG_INTER_MATRIX
        assert_same(
            SCALAR.dequant_mpeg(levels, matrix, qscale, intra),
            SIMD.dequant_mpeg(levels, matrix, qscale, intra),
        )

    @given(blocks(8, -2040, 2040))
    def test_quant_matrix(self, coeffs):
        from repro.codecs.mjpeg.tables import LUMA_MATRIX

        assert_same(
            SCALAR.quant_matrix(coeffs, LUMA_MATRIX),
            SIMD.quant_matrix(coeffs, LUMA_MATRIX),
        )

    @given(blocks(8, -255, 255))
    def test_dequant_matrix(self, levels):
        from repro.codecs.mjpeg.tables import CHROMA_MATRIX

        assert_same(
            SCALAR.dequant_matrix(levels, CHROMA_MATRIX),
            SIMD.dequant_matrix(levels, CHROMA_MATRIX),
        )

    @given(blocks(8, -2040, 2040), st.integers(1, 31), st.booleans())
    def test_quant_h263(self, coeffs, qp, intra):
        assert_same(SCALAR.quant_h263(coeffs, qp, intra), SIMD.quant_h263(coeffs, qp, intra))

    @given(blocks(8, -600, 600), st.integers(1, 31), st.booleans())
    def test_dequant_h263(self, levels, qp, intra):
        assert_same(
            SCALAR.dequant_h263(levels, qp, intra), SIMD.dequant_h263(levels, qp, intra)
        )

    @given(blocks(4, -8160, 8160), st.integers(0, 51), st.booleans())
    def test_quant_h264(self, coeffs, qp, intra):
        assert_same(
            SCALAR.quant_h264_4x4(coeffs, qp, intra),
            SIMD.quant_h264_4x4(coeffs, qp, intra),
        )

    @given(blocks(4, -2047, 2047), st.integers(0, 51))
    def test_dequant_h264(self, levels, qp):
        assert_same(SCALAR.dequant_h264_4x4(levels, qp), SIMD.dequant_h264_4x4(levels, qp))

    @given(blocks(4, -16000, 16000), st.integers(0, 51), st.booleans())
    def test_h264_dc4(self, dc, qp, intra):
        assert_same(SCALAR.quant_h264_dc4(dc, qp, intra), SIMD.quant_h264_dc4(dc, qp, intra))

    @given(blocks(4, -2047, 2047), st.integers(0, 51))
    def test_h264_dc4_dequant(self, levels, qp):
        assert_same(SCALAR.dequant_h264_dc4(levels, qp), SIMD.dequant_h264_dc4(levels, qp))

    @given(st.lists(st.lists(st.integers(-8000, 8000), min_size=2, max_size=2),
                    min_size=2, max_size=2).map(lambda r: np.array(r, dtype=np.int64)),
           st.integers(0, 51), st.booleans())
    def test_h264_dc2(self, dc, qp, intra):
        assert_same(SCALAR.quant_h264_dc2(dc, qp, intra), SIMD.quant_h264_dc2(dc, qp, intra))
        levels = SCALAR.quant_h264_dc2(dc, qp, intra)
        assert_same(SCALAR.dequant_h264_dc2(levels, qp), SIMD.dequant_h264_dc2(levels, qp))


def stacks(low: int, high: int):
    """``(n, 4, 4)`` stacks of 4x4 blocks, n = 1..16 (one macroblock's worth)."""
    return st.lists(blocks(4, low, high), min_size=1, max_size=16).map(np.stack)


class TestStackedH264Kernels:
    """The H.264 4x4 transform and quantiser kernels on a stack equal the per-block calls."""

    @given(stacks(-255, 255))
    def test_fwd_transform4_stack(self, residuals):
        results = []
        for kernels in (SCALAR, SIMD):
            stacked = kernels.fwd_transform4(residuals)
            assert stacked.shape == residuals.shape
            assert_same(stacked, [kernels.fwd_transform4(block) for block in residuals])
            results.append(stacked)
        assert_same(*results)

    @given(stacks(-8160, 8160), st.integers(0, 51), st.booleans())
    def test_quant_h264_stack(self, coeffs, qp, intra):
        results = []
        for kernels in (SCALAR, SIMD):
            stacked = kernels.quant_h264_4x4(coeffs, qp, intra)
            assert stacked.shape == coeffs.shape
            assert_same(stacked, [kernels.quant_h264_4x4(block, qp, intra) for block in coeffs])
            results.append(stacked)
        assert_same(*results)

    @given(stacks(-2047, 2047), st.integers(0, 51))
    def test_dequant_h264_stack(self, levels, qp):
        results = []
        for kernels in (SCALAR, SIMD):
            stacked = kernels.dequant_h264_4x4(levels, qp)
            assert stacked.shape == levels.shape
            assert_same(stacked, [kernels.dequant_h264_4x4(block, qp) for block in levels])
            results.append(stacked)
        assert_same(*results)

    @given(stacks(-30000, 30000))
    def test_inv_transform4_stack(self, coeffs):
        results = []
        for kernels in (SCALAR, SIMD):
            stacked = kernels.inv_transform4(coeffs)
            assert stacked.shape == coeffs.shape
            assert_same(stacked, [kernels.inv_transform4(block) for block in coeffs])
            results.append(stacked)
        assert_same(*results)


@st.composite
def candidate_stacks(draw):
    """A block and an ``(n, size, size)`` stack of candidates for it, n = 1..9."""
    size = draw(st.sampled_from((4, 8, 16)))
    count = draw(st.integers(1, 9))
    samples = draw(arrays(np.int64, (count + 1, size, size), elements=st.integers(0, 255)))
    return samples[0], samples[1:]


@st.composite
def paired_stacks(draw):
    """Two ``(n, size, size)`` stacks of the same length, n = 1..48."""
    size = draw(st.sampled_from((4, 8, 16)))
    count = draw(st.integers(1, 48))
    samples = draw(arrays(np.int64, (2, count, size, size), elements=st.integers(0, 255)))
    return samples[0], samples[1]


class TestStackedSad:
    """``sad`` of a block against a stack is the list of its per-candidate
    sums; of a stack against a stack, the list of its per-pair sums."""

    @given(candidate_stacks())
    def test_sad_stack(self, case):
        block, candidates = case
        results = []
        for kernels in (SCALAR, SIMD):
            stacked = kernels.sad(block, candidates)
            assert stacked == [kernels.sad(block, candidate) for candidate in candidates]
            assert all(type(value) is int for value in stacked)
            results.append(stacked)
        assert results[0] == results[1]

    @given(paired_stacks())
    def test_sad_pairs(self, case):
        first, second = case
        results = []
        for kernels in (SCALAR, SIMD):
            paired = kernels.sad(first, second)
            assert paired == [kernels.sad(a, b) for a, b in zip(first, second)]
            assert all(type(value) is int for value in paired)
            results.append(paired)
        assert results[0] == results[1]

    @pytest.mark.parametrize("kernels", (SCALAR, SIMD), ids=lambda kernels: kernels.name)
    @pytest.mark.parametrize("lengths", ((1, 3), (3, 1), (2, 3)))
    def test_sad_pairs_of_unequal_length_raise(self, kernels, lengths):
        first = np.zeros((lengths[0], 4, 4), dtype=np.int64)
        second = np.ones((lengths[1], 4, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            kernels.sad(first, second)
        with pytest.raises(ValueError):
            kernels.sad(first, second[0])


class TestMotionCompensation:
    @given(planes(24, 24), st.integers(-7, 7), st.integers(-7, 7))
    @settings(max_examples=40)
    def test_mc_halfpel(self, plane, mvx, mvy):
        args = (plane, 8, 8, 8, 8, mvx, mvy)
        assert_same(SCALAR.mc_halfpel(*args), SIMD.mc_halfpel(*args))

    @given(planes(24, 24), st.integers(-15, 15), st.integers(-15, 15))
    @settings(max_examples=40)
    def test_mc_qpel_bilinear(self, plane, mvx, mvy):
        args = (plane, 8, 8, 8, 8, mvx, mvy)
        assert_same(SCALAR.mc_qpel_bilinear(*args), SIMD.mc_qpel_bilinear(*args))

    @given(planes(28, 28), st.integers(-12, 12), st.integers(-12, 12))
    @settings(max_examples=60)
    def test_mc_qpel_h264(self, plane, mvx, mvy):
        args = (plane, 10, 10, 8, 8, mvx, mvy)
        assert_same(SCALAR.mc_qpel_h264(*args), SIMD.mc_qpel_h264(*args))

    def test_mc_qpel_h264_all_subpositions(self):
        rng = np.random.default_rng(11)
        plane = rng.integers(0, 256, (32, 32)).astype(np.int64)
        for fy in range(4):
            for fx in range(4):
                args = (plane, 12, 12, 4, 4, fx - 8, fy + 4)
                assert_same(SCALAR.mc_qpel_h264(*args), SIMD.mc_qpel_h264(*args))

    @given(planes(20, 20), st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=40)
    def test_mc_chroma_bilinear8(self, plane, mvx, mvy):
        args = (plane, 8, 8, 4, 4, mvx, mvy)
        assert_same(SCALAR.mc_chroma_bilinear8(*args), SIMD.mc_chroma_bilinear8(*args))


def line(n: int):
    return st.lists(st.integers(0, 255), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int64)
    )


class TestDeblock:
    @given(line(8), line(8), line(8), line(8), line(8), line(8),
           st.integers(0, 64), st.integers(0, 18),
           st.lists(st.integers(-1, 9), min_size=8, max_size=8),
           st.booleans())
    @settings(max_examples=60)
    def test_deblock_normal(self, p2, p1, p0, q0, q1, q2, alpha, beta, c0, chroma):
        c0_array = np.array(c0, dtype=np.int64)
        out_scalar = SCALAR.deblock_normal(p2, p1, p0, q0, q1, q2, alpha, beta, c0_array, chroma)
        out_simd = SIMD.deblock_normal(p2, p1, p0, q0, q1, q2, alpha, beta, c0_array, chroma)
        for a, b in zip(out_scalar, out_simd):
            assert_same(a, b)

    @given(line(8), line(8), line(8), line(8), line(8), line(8), line(8), line(8),
           st.integers(0, 128), st.integers(0, 18),
           st.lists(st.integers(0, 1), min_size=8, max_size=8),
           st.booleans())
    @settings(max_examples=60)
    def test_deblock_strong(self, p3, p2, p1, p0, q0, q1, q2, q3,
                            alpha, beta, mask, chroma):
        mask_array = np.array(mask, dtype=np.int64)
        out_scalar = SCALAR.deblock_strong(
            p3, p2, p1, p0, q0, q1, q2, q3, alpha, beta, mask_array, chroma
        )
        out_simd = SIMD.deblock_strong(
            p3, p2, p1, p0, q0, q1, q2, q3, alpha, beta, mask_array, chroma
        )
        for a, b in zip(out_scalar, out_simd):
            assert_same(a, b)
