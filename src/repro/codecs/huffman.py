"""Deterministic Huffman construction and VLC tables.

The MPEG-2 and MPEG-4 class codecs use static variable-length codes for
coefficient events, coded block patterns and macroblock modes.  Rather than
copying the ISO code tables verbatim, each codec declares a *prior*
(expected symbol frequencies) and builds a canonical Huffman code from it
at import time; see the bitstream note in DESIGN.md.  The construction is
fully deterministic, so encoder and decoder always agree.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.common.bitstream import BitReader, BitWriter
from repro.errors import BitstreamError, ConfigError

Symbol = Hashable
Code = Tuple[int, int]  # (value, length)

#: Width in bits of the window a :class:`VlcTable` decodes with one lookup
#: (narrower for a table whose longest code is shorter).  Longer codes are
#: found in a second, ``max_length``-bit window; docs/BITSTREAM.md gives the
#: measurements behind the value.
LOOKUP_BITS = 12


def huffman_code_lengths(frequencies: Mapping[Symbol, float]) -> Dict[Symbol, int]:
    """Huffman code length per symbol, deterministic under ties."""
    if not frequencies:
        raise ConfigError("cannot build a Huffman code over no symbols")
    if len(frequencies) == 1:
        return {symbol: 1 for symbol in frequencies}
    # Heap entries: (frequency, creation order, symbols-in-subtree)
    heap: List[Tuple[float, int, List[Symbol]]] = []
    order = 0
    for symbol in sorted(frequencies, key=repr):
        freq = frequencies[symbol]
        if freq <= 0:
            raise ConfigError(f"frequency for {symbol!r} must be positive")
        heap.append((freq, order, [symbol]))
        order += 1
    heapq.heapify(heap)
    lengths = {symbol: 0 for symbol in frequencies}
    while len(heap) > 1:
        freq_a, _, symbols_a = heapq.heappop(heap)
        freq_b, _, symbols_b = heapq.heappop(heap)
        merged = symbols_a + symbols_b
        for symbol in merged:
            lengths[symbol] += 1
        heapq.heappush(heap, (freq_a + freq_b, order, merged))
        order += 1
    return lengths


def canonical_codes(lengths: Mapping[Symbol, int]) -> Dict[Symbol, Code]:
    """Canonical code assignment from code lengths (shortest first)."""
    ordered = sorted(lengths.items(), key=lambda item: (item[1], repr(item[0])))
    codes: Dict[Symbol, Code] = {}
    code = 0
    previous_length = 0
    for symbol, length in ordered:
        code <<= length - previous_length
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


class VlcTable:
    """A static prefix-free code over a symbol alphabet.

    Decoding looks the next ``width`` bits up in a table built from the
    code map: entry ``w`` holds the symbol whose code is a prefix of ``w``
    and its length, or ``None`` when no code of at most ``width`` bits is.
    """

    def __init__(self, codes: Mapping[Symbol, Code], name: str = "") -> None:
        self.name = name
        self._encode: Dict[Symbol, Code] = dict(codes)
        self._decode: Dict[Code, Symbol] = {}
        for symbol, (value, length) in self._encode.items():
            if length <= 0:
                raise ConfigError(f"{name}: zero-length code for {symbol!r}")
            if not 0 <= value < 1 << length:
                raise ConfigError(f"{name}: code {value} for {symbol!r} has more than {length} bits")
            key = (value, length)
            if key in self._decode:
                raise ConfigError(f"{name}: duplicate code for {symbol!r}")
            self._decode[key] = symbol
        self.max_length = max(length for _, length in self._encode.values())
        self._check_prefix_free()
        self._width = min(self.max_length, LOOKUP_BITS)
        self._lookup: List[Optional[Tuple[Symbol, int]]] = [None] * (1 << self._width)
        for (value, length), symbol in self._decode.items():
            if length <= self._width:
                spread = self._width - length
                start, stop = value << spread, (value + 1) << spread
                self._lookup[start:stop] = [(symbol, length)] * (stop - start)

    @classmethod
    def from_frequencies(cls, frequencies: Mapping[Symbol, float], name: str = "") -> "VlcTable":
        return cls(canonical_codes(huffman_code_lengths(frequencies)), name=name)

    def _check_prefix_free(self) -> None:
        by_length = sorted(self._decode, key=lambda key: key[1])
        seen = set()
        for value, length in by_length:
            for prefix_len, prefix_val in seen:
                if prefix_len < length and (value >> (length - prefix_len)) == prefix_val:
                    raise ConfigError(f"{self.name}: code table is not prefix free")
            seen.add((length, value))

    def __len__(self) -> int:
        return len(self._encode)

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._encode

    def bits(self, symbol: Symbol) -> int:
        """Code length of ``symbol`` (for rate estimation)."""
        return self._encode[symbol][1]

    def write(self, writer: BitWriter, symbol: Symbol) -> None:
        try:
            value, length = self._encode[symbol]
        except KeyError:
            raise BitstreamError(f"{self.name}: symbol {symbol!r} has no code") from None
        writer.write_bits(value, length)

    def read(self, reader: BitReader) -> Symbol:
        entry = self._lookup[reader.peek_bits(self._width)]
        if entry is None:
            return self._read_long(reader)
        # A code cut off by the end of the data stops the reader at the end,
        # where a bit-by-bit walk stops: the code is the only one its bits
        # could begin.
        reader.skip_bits(entry[1])
        return entry[0]

    def _read_long(self, reader: BitReader) -> Symbol:
        """Decode from a ``max_length``-bit window: codes longer than the
        lookup width, or no code, which fails after ``max_length`` bits as a
        bit-by-bit walk does (or at the end of the data, if that comes first)."""
        window = reader.peek_bits(self.max_length)
        for length in range(self._width + 1, self.max_length + 1):
            symbol = self._decode.get((window >> (self.max_length - length), length))
            if symbol is not None:
                reader.skip_bits(length)
                return symbol
        reader.skip_bits(self.max_length)
        raise BitstreamError(f"{self.name}: invalid code in bitstream")


def geometric(probability: float, value: int) -> float:
    """Unnormalised geometric prior p * (1-p)^value; used to build tables."""
    return probability * (1.0 - probability) ** value
