"""Tests for the deterministic Huffman builder and VLC tables."""

import pytest
from hypothesis import given, strategies as st

from repro.codecs.huffman import (
    VlcTable,
    canonical_codes,
    geometric,
    huffman_code_lengths,
)
from repro.common.bitstream import BitReader, BitWriter
from repro.errors import BitstreamError, ConfigError


class TestHuffmanLengths:
    def test_two_symbols_get_one_bit(self):
        lengths = huffman_code_lengths({"a": 0.9, "b": 0.1})
        assert lengths == {"a": 1, "b": 1}

    def test_rare_symbols_get_longer_codes(self):
        lengths = huffman_code_lengths({"common": 0.9, "rare": 0.05, "rarer": 0.05})
        assert lengths["common"] < lengths["rare"]

    def test_deterministic_under_reordering(self):
        freqs = {"a": 0.3, "b": 0.3, "c": 0.2, "d": 0.2}
        first = huffman_code_lengths(freqs)
        second = huffman_code_lengths(dict(reversed(list(freqs.items()))))
        assert first == second

    def test_kraft_equality(self):
        freqs = {f"s{i}": geometric(0.3, i) + 1e-9 for i in range(40)}
        lengths = huffman_code_lengths(freqs)
        assert sum(2.0 ** -length for length in lengths.values()) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            huffman_code_lengths({})

    def test_zero_frequency_rejected(self):
        with pytest.raises(ConfigError):
            huffman_code_lengths({"a": 0.0, "b": 1.0})

    def test_single_symbol(self):
        assert huffman_code_lengths({"only": 1.0}) == {"only": 1}


class TestCanonicalCodes:
    def test_shortest_code_is_zero(self):
        codes = canonical_codes({"a": 1, "b": 2, "c": 2})
        assert codes["a"] == (0, 1)

    def test_all_codes_distinct(self):
        lengths = huffman_code_lengths({f"s{i}": 1.0 / (i + 1) for i in range(20)})
        codes = canonical_codes(lengths)
        assert len({code for code in codes.values()}) == len(codes)


class TestVlcTable:
    def build(self, count: int = 30) -> VlcTable:
        freqs = {i: geometric(0.4, i) + 1e-12 for i in range(count)}
        return VlcTable.from_frequencies(freqs, name="test")

    def test_roundtrip_all_symbols(self):
        table = self.build()
        writer = BitWriter()
        for symbol in range(30):
            table.write(writer, symbol)
        writer.align()
        reader = BitReader(writer.to_bytes())
        assert [table.read(reader) for _ in range(30)] == list(range(30))

    def test_bits_matches_written_length(self):
        table = self.build()
        for symbol in range(30):
            writer = BitWriter()
            table.write(writer, symbol)
            assert len(writer) == table.bits(symbol)

    def test_common_symbols_cost_fewer_bits(self):
        table = self.build()
        assert table.bits(0) <= table.bits(10) <= table.bits(29)

    def test_unknown_symbol_raises(self):
        table = self.build()
        with pytest.raises(BitstreamError):
            table.write(BitWriter(), "nope")

    def test_invalid_bitstream_raises(self):
        # A code of all ones at max length+ that matches nothing.
        freqs = {"a": 0.6, "b": 0.3, "c": 0.1}
        table = VlcTable.from_frequencies(freqs, name="tiny")
        # Exhaust: read from an empty stream raises BitstreamError.
        with pytest.raises(BitstreamError):
            table.read(BitReader(b""))

    def test_contains_and_len(self):
        table = self.build(5)
        assert len(table) == 5
        assert 3 in table
        assert 99 not in table

    def test_duplicate_codes_rejected(self):
        with pytest.raises(ConfigError):
            VlcTable({"a": (0, 1), "b": (0, 1)})

    def test_code_value_must_fit_its_length(self):
        # Such a code can never be read, and it would index past the lookup table.
        with pytest.raises(ConfigError):
            VlcTable({"a": (2, 1), "b": (0, 1)})
        with pytest.raises(ConfigError):
            VlcTable({"a": (-1, 2)})

    def test_prefix_violation_rejected(self):
        with pytest.raises(ConfigError):
            VlcTable({"a": (0, 1), "b": (1, 2)})  # '0' is a prefix of... ok
        # '0' and '00' collide as prefix:
        with pytest.raises(ConfigError):
            VlcTable({"a": (0, 1), "b": (0, 2)})

    @given(st.integers(2, 60), st.integers(0, 1000))
    def test_roundtrip_random_alphabets(self, size, seed):
        import random

        rng = random.Random(seed)
        freqs = {i: rng.random() + 1e-6 for i in range(size)}
        table = VlcTable.from_frequencies(freqs, name="prop")
        writer = BitWriter()
        symbols = [rng.randrange(size) for _ in range(40)]
        for symbol in symbols:
            table.write(writer, symbol)
        writer.align()
        reader = BitReader(writer.to_bytes())
        assert [table.read(reader) for _ in symbols] == symbols
