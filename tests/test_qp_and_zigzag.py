"""Tests for the QP equivalence (Equation 1) and scan orders."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.transform.qp import (
    h264_qp_from_mpeg,
    mpeg_qscale_from_h264,
    validate_h264_qp,
    validate_mpeg_qscale,
)
from repro.transform.zigzag import (
    ZIGZAG_2X2,
    ZIGZAG_4X4,
    ZIGZAG_8X8,
    raster_block,
    scan,
    scan4,
    scan8,
    unscan,
    unscan4,
    unscan8,
)


def loop_scan(block, order):
    """``scan`` one position at a time: the reference for the index arrays."""
    rows = block.tolist()
    return [rows[i][j] for i, j in order]


def loop_unscan(values, order, size):
    """``unscan`` one position at a time: the reference for the index arrays."""
    block = np.zeros((size, size), dtype=np.int64)
    for value, (i, j) in zip(values, order):
        block[i, j] = value
    return block


class TestEquation1:
    def test_paper_settings(self):
        # Table IV: vqscale=5 and --qp 26 must correspond.
        assert h264_qp_from_mpeg(5) == 26

    @pytest.mark.parametrize("qscale, qp", [(1, 12), (2, 18), (4, 24), (8, 30), (16, 36)])
    def test_powers_of_two(self, qscale, qp):
        assert h264_qp_from_mpeg(qscale) == qp

    def test_clamped_to_valid_range(self):
        assert 0 <= h264_qp_from_mpeg(1) <= 51
        assert h264_qp_from_mpeg(31) <= 51

    def test_below_one_rejected(self):
        with pytest.raises(ConfigError):
            h264_qp_from_mpeg(0.5)

    @given(st.integers(1, 31))
    def test_inverse_consistency(self, qscale):
        qp = h264_qp_from_mpeg(qscale)
        recovered = mpeg_qscale_from_h264(qp)
        # Rounded QP maps back within one rounding step.
        assert recovered == pytest.approx(qscale, rel=0.07)

    def test_inverse_range_check(self):
        with pytest.raises(ConfigError):
            mpeg_qscale_from_h264(52)

    def test_validators(self):
        assert validate_mpeg_qscale(5) == 5
        assert validate_h264_qp(26) == 26
        with pytest.raises(ConfigError):
            validate_mpeg_qscale(0)
        with pytest.raises(ConfigError):
            validate_mpeg_qscale(32)
        with pytest.raises(ConfigError):
            validate_h264_qp(-1)


class TestZigzag:
    def test_lengths(self):
        assert len(ZIGZAG_8X8) == 64
        assert len(ZIGZAG_4X4) == 16
        assert len(ZIGZAG_2X2) == 4

    def test_each_position_once(self):
        assert len(set(ZIGZAG_8X8)) == 64
        assert len(set(ZIGZAG_4X4)) == 16

    def test_starts_at_dc_ends_at_corner(self):
        assert ZIGZAG_8X8[0] == (0, 0)
        assert ZIGZAG_8X8[-1] == (7, 7)
        assert ZIGZAG_4X4[0] == (0, 0)
        assert ZIGZAG_4X4[-1] == (3, 3)

    def test_classic_8x8_prefix(self):
        # The standard zigzag order begins (0,0),(0,1),(1,0),(2,0),(1,1),(0,2).
        assert ZIGZAG_8X8[:6] == ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2))

    def test_frequency_ordering(self):
        # Later scan positions are never closer to DC (by i+j) than 2 steps.
        sums = [i + j for i, j in ZIGZAG_8X8]
        for index in range(1, len(sums)):
            assert sums[index] >= sums[index - 1] - 1

    def test_scan8_roundtrip(self):
        rng = np.random.default_rng(0)
        block = rng.integers(-100, 100, (8, 8)).astype(np.int64)
        assert np.array_equal(unscan8(scan8(block)), block)

    def test_scan4_roundtrip(self):
        rng = np.random.default_rng(1)
        block = rng.integers(-100, 100, (4, 4)).astype(np.int64)
        assert np.array_equal(unscan4(scan4(block)), block)

    def test_unscan_short_list_zero_fills(self):
        block = unscan4([5, 3])
        assert int(block[0, 0]) == 5
        assert int(block[0, 1]) == 3
        assert int(np.sum(np.abs(block))) == 8

    @pytest.mark.parametrize("order, size", [(ZIGZAG_8X8, 8), (ZIGZAG_4X4, 4), (ZIGZAG_2X2, 2)])
    @given(st.data())
    def test_index_arrays_match_loops(self, order, size, data):
        levels = st.integers(-2048, 2047)
        block = np.array(data.draw(st.lists(levels, min_size=size * size, max_size=size * size)),
                         dtype=np.int64).reshape(size, size)
        values = data.draw(st.lists(levels, max_size=size * size + 2))
        for positions in (order, list(order)):
            scanned = scan(block, positions)
            assert scanned == loop_scan(block, order)
            assert all(type(value) is int for value in scanned)
            assert np.array_equal(unscan(values, positions, size), loop_unscan(values, order, size))
        # A block reader places scan position i at raster index order.raster[i].
        placed = [0] * (size * size)
        for value, index in zip(values, order.raster):
            placed[index] = value
        assert np.array_equal(raster_block(placed, size), loop_unscan(values, order, size))
