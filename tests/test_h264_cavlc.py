"""Tests for the CAVLC-structured residual coder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs.h264.cavlc import CavlcCoder, nc_context
from repro.common.bitstream import BitReader, BitWriter

CODER = CavlcCoder()


def roundtrip(scanned, nc=0):
    writer = BitWriter()
    tc_encoded = CODER.encode_block(writer, scanned, nc)
    writer.align()
    decoded, tc_decoded = CODER.decode_block(BitReader(writer.to_bytes()), range(len(scanned)), nc)
    assert tc_encoded == tc_decoded
    return decoded


class TestNcContext:
    def test_both_neighbours(self):
        assert nc_context(3, 6) == 5  # (3 + 6 + 1) >> 1

    def test_single_neighbour(self):
        assert nc_context(4, None) == 4
        assert nc_context(None, 7) == 7

    def test_no_neighbours(self):
        assert nc_context(None, None) == 0


class TestBlocks:
    def test_empty_block(self):
        assert roundtrip([0] * 16) == [0] * 16

    def test_single_trailing_one(self):
        scanned = [0] * 16
        scanned[0] = 1
        assert roundtrip(scanned) == scanned

    def test_negative_trailing_one(self):
        scanned = [0] * 16
        scanned[4] = -1
        assert roundtrip(scanned) == scanned

    def test_three_trailing_ones(self):
        scanned = [5, 0, 1, -1, 1] + [0] * 11
        assert roundtrip(scanned) == scanned

    def test_more_than_three_ones(self):
        # Only the last three count as trailing ones; earlier +-1s are levels.
        scanned = [1, 1, 1, 1, 1] + [0] * 11
        assert roundtrip(scanned) == scanned

    def test_full_block(self):
        scanned = [(-1) ** i * (i + 1) for i in range(16)]
        assert roundtrip(scanned) == scanned

    def test_large_levels_escape(self):
        scanned = [0] * 16
        scanned[0] = 2047
        scanned[1] = -1800
        assert roundtrip(scanned) == scanned

    def test_many_leading_zeros(self):
        scanned = [0] * 16
        scanned[15] = 3
        assert roundtrip(scanned) == scanned

    def test_alternating_zeros(self):
        scanned = [2, 0, -3, 0, 4, 0, -1, 0, 1] + [0] * 7
        assert roundtrip(scanned) == scanned

    def test_chroma_dc_block_size_4(self):
        scanned = [7, 0, -2, 1]
        assert roundtrip(scanned) == scanned

    def test_ac_block_size_15(self):
        scanned = [0] * 15
        scanned[3] = -9
        scanned[14] = 1
        assert roundtrip(scanned) == scanned

    @pytest.mark.parametrize("nc", [0, 1, 2, 3, 5, 8, 16])
    def test_all_nc_contexts(self, nc):
        scanned = [3, -1, 0, 1] + [0] * 12
        assert roundtrip(scanned, nc=nc) == scanned

    def test_context_changes_bit_cost(self):
        # A dense block should be cheaper under a high-nC context.
        scanned = [4, -3, 2, 1, -1, 1, 0, 1] + [0] * 8
        costs = {}
        for nc in (0, 8):
            writer = BitWriter()
            CODER.encode_block(writer, scanned, nc)
            costs[nc] = len(writer)
        assert costs[8] <= costs[0]

    def test_empty_block_is_one_or_two_bits(self):
        writer = BitWriter()
        CODER.encode_block(writer, [0] * 16, 0)
        assert len(writer) <= 2

    @given(st.lists(st.integers(-2047, 2047), min_size=16, max_size=16),
           st.integers(0, 16))
    @settings(max_examples=120)
    def test_roundtrip_property_16(self, scanned, nc):
        assert roundtrip(scanned, nc) == scanned

    @given(st.lists(st.integers(-60, 60), min_size=15, max_size=15),
           st.integers(0, 16))
    @settings(max_examples=60)
    def test_roundtrip_property_15(self, scanned, nc):
        assert roundtrip(scanned, nc) == scanned

    @given(st.lists(st.integers(-500, 500), min_size=4, max_size=4))
    @settings(max_examples=60)
    def test_roundtrip_property_dc(self, scanned):
        assert roundtrip(scanned, 0) == scanned

    @given(st.lists(st.lists(st.integers(-40, 40), min_size=16, max_size=16),
                    min_size=2, max_size=6))
    @settings(max_examples=40)
    def test_consecutive_blocks_share_stream(self, blocks):
        writer = BitWriter()
        for scanned in blocks:
            CODER.encode_block(writer, scanned, 2)
        writer.align()
        reader = BitReader(writer.to_bytes())
        for scanned in blocks:
            decoded, _ = CODER.decode_block(reader, range(16), 2)
            assert decoded == scanned
