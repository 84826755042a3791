"""Tests for the bit-level writer and reader."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bitstream import BitReader, BitWriter
from repro.errors import BitstreamError


class TestBitWriter:
    def test_empty_writer_is_empty(self):
        writer = BitWriter()
        assert len(writer) == 0
        assert writer.to_bytes() == b""

    def test_single_bit(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert len(writer) == 1
        assert writer.to_bytes() == b"\x80"

    def test_bits_msb_first(self):
        writer = BitWriter()
        writer.write_bits(0b10110, 5)
        assert writer.to_bytes() == bytes([0b10110000])

    def test_docstring_example(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        writer.write_bit(1)
        writer.align()
        assert writer.to_bytes() == b"\xb0"

    def test_bit_rejects_non_binary(self):
        with pytest.raises(BitstreamError):
            BitWriter().write_bit(2)

    def test_value_must_fit(self):
        with pytest.raises(BitstreamError):
            BitWriter().write_bits(8, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(BitstreamError):
            BitWriter().write_bits(0, -1)

    def test_zero_count_writes_nothing(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert len(writer) == 0

    def test_signed_roundtrips_through_two_complement(self):
        writer = BitWriter()
        writer.write_signed(-3, 8)
        reader = BitReader(writer.to_bytes())
        assert reader.read_signed(8) == -3

    def test_signed_range_checked(self):
        with pytest.raises(BitstreamError):
            BitWriter().write_signed(128, 8)
        with pytest.raises(BitstreamError):
            BitWriter().write_signed(-129, 8)

    def test_align_returns_padding_count(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.align() == 5
        assert writer.align() == 0

    def test_write_bytes_requires_alignment(self):
        writer = BitWriter()
        writer.write_bit(1)
        with pytest.raises(BitstreamError):
            writer.write_bytes(b"x")

    def test_write_bytes_when_aligned(self):
        writer = BitWriter()
        writer.write_bytes(b"ab")
        assert writer.to_bytes() == b"ab"

    def test_partial_byte_zero_padded(self):
        writer = BitWriter()
        writer.write_bits(0b11, 2)
        assert writer.to_bytes() == bytes([0b11000000])


class TestBitReader:
    def test_read_single_bits(self):
        reader = BitReader(b"\xa0")  # 1010 0000
        assert [reader.read_bit() for _ in range(4)] == [1, 0, 1, 0]

    def test_read_bits_msb_first(self):
        reader = BitReader(bytes([0b11010010]))
        assert reader.read_bits(3) == 0b110
        assert reader.read_bits(5) == 0b10010

    def test_read_bits_across_byte_boundary(self):
        reader = BitReader(bytes([0xFF, 0x00, 0xFF]))
        reader.read_bits(4)
        assert reader.read_bits(12) == 0xF00 >> 0  # 1111 0000 0000
        assert reader.read_bits(8) == 0xFF

    def test_read_past_end_raises(self):
        reader = BitReader(b"\x00")
        reader.read_bits(8)
        with pytest.raises(BitstreamError):
            reader.read_bit()

    def test_read_bits_past_end_raises(self):
        with pytest.raises(BitstreamError):
            BitReader(b"\x00").read_bits(9)

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        assert reader.bits_remaining == 16
        reader.read_bits(5)
        assert reader.bits_remaining == 11

    def test_at_end(self):
        reader = BitReader(b"\xff")
        assert not reader.at_end()
        reader.read_bits(8)
        assert reader.at_end()

    def test_peek_does_not_consume(self):
        reader = BitReader(bytes([0b10110000]))
        assert reader.peek_bits(3) == 0b101
        assert reader.read_bits(3) == 0b101

    def test_peek_pads_with_zeros_past_end(self):
        reader = BitReader(bytes([0b11000000]))
        assert reader.peek_bits(16) == 0b1100000000000000

    def test_skip_bits(self):
        reader = BitReader(bytes([0b00001111]))
        reader.skip_bits(4)
        assert reader.read_bits(4) == 0b1111

    def test_skip_past_end_raises(self):
        with pytest.raises(BitstreamError):
            BitReader(b"").skip_bits(1)

    def test_skip_past_end_stops_at_end(self):
        # Where reading the skipped bits one at a time would have stopped.
        from repro.errors import TruncationError

        reader = BitReader(b"\xff\x00")
        reader.read_bits(3)
        with pytest.raises(TruncationError):
            reader.skip_bits(14)
        assert reader.bit_position == 16

    def test_negative_skip_raises_without_moving(self):
        reader = BitReader(b"\xff\x00")
        reader.read_bits(8)
        with pytest.raises(BitstreamError) as raised:
            reader.skip_bits(-4)
        assert type(raised.value) is BitstreamError
        assert reader.bit_position == 8

    def test_negative_read_bytes_raises_without_moving(self):
        reader = BitReader(b"\xff\x00")
        assert reader.read_bytes(1) == b"\xff"
        with pytest.raises(BitstreamError) as raised:
            reader.read_bytes(-1)
        assert type(raised.value) is BitstreamError
        assert reader.bit_position == 8

    def test_read_unary_counts_zeros_and_consumes_the_one(self):
        reader = BitReader(bytes([0b00010110]))
        assert reader.read_unary() == 3
        assert reader.bit_position == 4
        assert reader.read_unary() == 1
        assert reader.read_unary() == 0

    def test_read_unary_limit_consumes_exactly_limit_zeros(self):
        reader = BitReader(bytes(3))
        assert reader.read_unary(5) == 5
        assert reader.bit_position == 5

    def test_read_unary_past_end_stops_at_end(self):
        from repro.errors import TruncationError

        for data in (b"", bytes(1), bytes(6)):
            reader = BitReader(data)
            with pytest.raises(TruncationError):
                reader.read_unary()
            assert reader.bit_position == 8 * len(data)

    def test_align(self):
        reader = BitReader(bytes([0xFF, 0xAB]))
        reader.read_bits(3)
        assert reader.align() == 5
        assert reader.read_bits(8) == 0xAB

    def test_read_bytes_requires_alignment(self):
        reader = BitReader(b"\x00\x00")
        reader.read_bit()
        with pytest.raises(BitstreamError):
            reader.read_bytes(1)

    def test_read_bytes(self):
        reader = BitReader(b"abcd")
        assert reader.read_bytes(2) == b"ab"
        assert reader.read_bytes(2) == b"cd"

    def test_signed_negative(self):
        reader = BitReader(bytes([0xFF]))
        assert reader.read_signed(8) == -1

    def test_zero_count_read(self):
        assert BitReader(b"").read_bits(0) == 0


class TestRoundTrip:
    @given(st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 24)), max_size=50))
    def test_write_read_roundtrip(self, fields):
        writer = BitWriter()
        expected = []
        for value, width in fields:
            value &= (1 << width) - 1
            writer.write_bits(value, width)
            expected.append((value, width))
        writer.align()
        reader = BitReader(writer.to_bytes())
        for value, width in expected:
            assert reader.read_bits(width) == value

    @given(st.lists(st.integers(-1000, 1000), max_size=30))
    def test_signed_roundtrip(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_signed(value, 12)
        writer.align()
        reader = BitReader(writer.to_bytes())
        for value in values:
            assert reader.read_signed(12) == value

    @given(st.binary(max_size=64))
    def test_bytes_roundtrip(self, data):
        writer = BitWriter()
        writer.write_bytes(data)
        reader = BitReader(writer.to_bytes())
        assert reader.read_bytes(len(data)) == data


class TestWideFieldValidation:
    """write_bits range checks at and past 64 bits (the numpy-shift edge)."""

    def test_wide_values_roundtrip(self):
        for count in (64, 65, 100):
            value = (1 << count) - 1
            writer = BitWriter()
            writer.write_bits(value, count)
            assert BitReader(writer.to_bytes()).read_bits(count) == value

    def test_oversized_value_rejected_at_64_bits(self):
        with pytest.raises(BitstreamError):
            BitWriter().write_bits(1 << 64, 64)
        with pytest.raises(BitstreamError):
            BitWriter().write_bits(1 << 70, 70)

    def test_negative_value_rejected(self):
        with pytest.raises(BitstreamError):
            BitWriter().write_bits(-1, 64)

    def test_numpy_integers_accepted(self):
        import numpy as np

        writer = BitWriter()
        writer.write_bits(np.int64(5), 8)
        assert BitReader(writer.to_bytes()).read_bits(8) == 5


class TestReaderBounds:
    """align() and past-end reads must fail as TruncationError, in bounds."""

    def test_align_past_end_raises(self):
        from repro.errors import TruncationError

        reader = BitReader(b"\xff")
        reader.read_bits(3)
        reader.align()  # still in bounds: consumes the padding
        with pytest.raises(TruncationError):
            reader.read_bit()

    def test_align_with_no_remaining_padding_raises_cleanly(self):
        from repro.errors import TruncationError

        reader = BitReader(b"")
        assert reader.align() == 0  # aligned already: nothing to skip
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        assert reader.align() == 0
        with pytest.raises(TruncationError):
            reader.read_bits(1)

    def test_past_end_reads_raise_truncation_error(self):
        from repro.errors import TruncationError

        assert issubclass(TruncationError, BitstreamError)
        with pytest.raises(TruncationError):
            BitReader(b"").read_bit()
        with pytest.raises(TruncationError):
            BitReader(b"\x00").read_bits(9)
        with pytest.raises(TruncationError):
            BitReader(b"").skip_bits(1)
        with pytest.raises(TruncationError):
            BitReader(b"\x00").read_bytes(2)
