"""Tests for MPEG-2 run/level coding and its static tables."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs.mpeg2 import tables
from repro.codecs.huffman import encode_run_level
from repro.common.bitstream import BitReader, BitWriter
from repro.errors import BitstreamError


def roundtrip(scanned, start=0):
    writer = BitWriter()
    encode_run_level(writer, tables.COEFF_CODE, scanned, start=start)
    writer.align()
    reader = BitReader(writer.to_bytes())
    return tables.COEFF_CODE.read_block(reader, range(len(scanned)), start=start)


class TestTables:
    def test_eob_is_short(self):
        assert tables.COEFF_TABLE.bits(tables.EOB) <= 3

    def test_small_events_cheap(self):
        assert tables.COEFF_TABLE.bits((0, 1)) <= 4
        assert tables.COEFF_TABLE.bits((0, 1)) < tables.COEFF_TABLE.bits((5, 5))

    def test_all_events_in_table(self):
        for run in range(tables.MAX_RUN + 1):
            for level in range(1, tables.MAX_LEVEL + 1):
                assert (run, level) in tables.COEFF_TABLE

    def test_cbp_table_complete(self):
        for pattern in range(64):
            assert pattern in tables.CBP_TABLE

    def test_full_pattern_is_cheap(self):
        assert tables.CBP_TABLE.bits(0b111111) <= tables.CBP_TABLE.bits(0b101010)

    def test_mb_mode_tables(self):
        assert "skip" in tables.MB_P_TABLE
        assert "bi" in tables.MB_B_TABLE


class TestRunLevel:
    def test_empty_block(self):
        assert roundtrip([0] * 64) == [0] * 64

    def test_single_dc(self):
        scanned = [0] * 64
        scanned[0] = 7
        assert roundtrip(scanned) == scanned

    def test_trailing_coefficient(self):
        scanned = [0] * 64
        scanned[63] = -1
        assert roundtrip(scanned) == scanned

    def test_start_offset_skips_dc(self):
        scanned = [99] + [0] * 63
        scanned[5] = -3
        decoded = roundtrip(scanned, start=1)
        assert decoded[0] == 0  # DC position not coded here
        assert decoded[5] == -3

    def test_escape_for_large_level(self):
        scanned = [0] * 64
        scanned[2] = 500  # beyond MAX_LEVEL -> escape path
        assert roundtrip(scanned) == scanned

    def test_escape_for_long_run(self):
        scanned = [0] * 64
        scanned[40] = 2  # run 40 > MAX_RUN
        assert roundtrip(scanned) == scanned

    def test_negative_levels(self):
        scanned = [0] * 64
        scanned[1] = -1
        scanned[3] = -15
        scanned[10] = -2000
        assert roundtrip(scanned) == scanned

    def test_dense_block(self):
        scanned = [(-1) ** i * (1 + i % 5) for i in range(64)]
        assert roundtrip(scanned) == scanned

    def test_overrun_raises(self):
        # Hand-craft: event with run beyond the block end.
        writer = BitWriter()
        tables.COEFF_TABLE.write(writer, tables.ESCAPE)
        writer.write_bits(63, tables.ESCAPE_RUN_BITS)
        writer.write_signed(5, tables.ESCAPE_LEVEL_BITS)
        writer.align()
        with pytest.raises(BitstreamError):
            tables.COEFF_CODE.read_block(BitReader(writer.to_bytes()), range(16))

    @given(st.lists(st.integers(-2047, 2047), min_size=64, max_size=64))
    @settings(max_examples=60)
    def test_roundtrip_property(self, scanned):
        assert roundtrip(scanned) == scanned

    @given(st.lists(st.integers(-300, 300), min_size=64, max_size=64))
    @settings(max_examples=30)
    def test_roundtrip_from_ac_start(self, scanned):
        decoded = roundtrip(scanned, start=1)
        assert decoded[1:] == scanned[1:]
        assert decoded[0] == 0
