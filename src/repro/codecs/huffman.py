"""Deterministic Huffman construction and VLC tables.

The MPEG-2 and MPEG-4 class codecs use static variable-length codes for
coefficient events, coded block patterns and macroblock modes.  Rather than
copying the ISO code tables verbatim, each codec declares a *prior*
(expected symbol frequencies) and builds a canonical Huffman code from it
at import time; see the bitstream note in DESIGN.md.  The construction is
fully deterministic, so encoder and decoder always agree.

:class:`RunLevelCode` is a coefficient table with its escape layout: the
block reader of the MPEG-2, MPEG-4 and VC-1 decoders, and the code the
MPEG-2 and VC-1 block coders write.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.common.bitstream import BitReader, BitWriter
from repro.errors import BitstreamError, ConfigError, TruncationError

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


#: A decided coefficient event: (run, signed level, bits, last).  End of block
#: is ``(-1, 0, bits, 1)``.
Event = Tuple[int, int, int, int]


class RunLevelCode:
    """The coefficient events of one codec's blocks, and their block reader.

    ``table`` codes (run, level) events ended by the ``eob`` symbol (MPEG-2,
    VC-1), or, when ``eob`` is ``None``, (last, run, level) events (MPEG-4).
    Each non-escape code is followed by the level's sign bit.  The
    ``escape`` symbol is followed by the last bit (3-D codes only), a
    ``run_bits`` run and a ``level_bits`` two's-complement level.

    :meth:`read_block` decides most events from one table of
    ``1 << LOOKUP_BITS`` entries that folds the sign bit into the code: an
    entry is the event whose code and sign begin the window (docs/BITSTREAM.md,
    "Coefficient blocks").
    """

    def __init__(self, table: VlcTable, escape: Symbol, run_bits: int, level_bits: int,
                 max_run: int, max_level: int, eob: Optional[Symbol] = None) -> None:
        self.table = table
        self.escape = escape
        self.eob = eob
        self.run_bits = run_bits
        self.level_bits = level_bits
        self.max_run = max_run
        self.max_level = max_level
        self._events: List[Optional[Event]] = [None] * (1 << LOOKUP_BITS)
        for symbol, (value, length) in table._encode.items():
            if symbol == eob:
                self._fill(value, length, (-1, 0, length, 1))
            elif symbol != escape:
                last, run, level = symbol if eob is None else (0, *symbol)
                self._fill(value << 1, length + 1, (run, level, length + 1, last))
                self._fill(value << 1 | 1, length + 1, (run, -level, length + 1, last))

    def _fill(self, value: int, length: int, event: Event) -> None:
        if length <= LOOKUP_BITS:
            spread = LOOKUP_BITS - length
            start, stop = value << spread, (value + 1) << spread
            self._events[start:stop] = [event] * (stop - start)

    def _read_event(self, reader: BitReader) -> Event:
        """One event the table does not decide, read code by code and field by
        field; the reader is past it, so the event takes no further bits."""
        symbol = self.table.read(reader)
        if symbol == self.eob:
            return (-1, 0, 0, 1)
        if symbol == self.escape:
            last = reader.read_bit() if self.eob is None else 0
            run = reader.read_bits(self.run_bits)
            return (run, reader.read_signed(self.level_bits), 0, last)
        last, run, level = symbol if self.eob is None else (0, *symbol)
        return (run, -level if reader.read_bit() else level, 0, last)

    def read_block(self, reader: BitReader, raster: Sequence[int], start: int = 0) -> List[int]:
        """Read one block coded from scan position ``start``; return its levels
        in raster order.

        ``raster[i]`` is the raster index of scan position ``i``, and
        ``len(raster)`` the block's size.  The reader's position, its data and
        a 64-bit window over the data are held in local variables, the way
        FFmpeg's ``GET_RL_VLC`` holds them, and the position is written back
        before every return and raise.  A code, or its sign, cut off by the
        end of the data stops the reader at the end, and a run past the
        block raises after its event: where a bit-by-bit read stops.
        """
        size = len(raster)
        block = [0] * size
        position = start
        events = self._events
        mask = len(events) - 1
        data = reader._data
        pos = reader._pos
        end = reader._end
        # The window holds the 8 bytes from byte ``pos >> 3``, zero-filled past
        # the end, and decides LOOKUP_BITS bits while pos <= limit.
        limit = -1
        window = 0
        while True:
            if pos > limit:
                first = pos >> 3
                chunk = data[first:first + 8]
                window = int.from_bytes(chunk, "big") << ((8 - len(chunk)) << 3)
                limit = (first << 3) + 64 - LOOKUP_BITS
            event = events[(window >> (limit - pos)) & mask]
            if event is None:
                reader._pos = pos
                event = self._read_event(reader)
                pos = reader._pos
            run, level, length, last = event
            pos += length
            if pos > end:
                reader._pos = end
                raise TruncationError("coefficient code past end of bitstream")
            if last and run < 0:
                reader._pos = pos
                return block
            position += run
            if position >= size:
                reader._pos = pos
                raise BitstreamError("run/level event past end of block")
            block[raster[position]] = level
            position += 1
            if last:
                reader._pos = pos
                return block


def encode_run_level(writer: BitWriter, code: RunLevelCode, scanned: Sequence[int],
                     start: int = 0) -> None:
    """Code ``scanned[start:]`` as (run, level) events of ``code``, then its EOB
    (the MPEG-2 and VC-1 block coder)."""
    table = code.table
    run = 0
    for value in scanned[start:]:
        if value == 0:
            run += 1
            continue
        magnitude = abs(value)
        if run <= code.max_run and magnitude <= code.max_level:
            table.write(writer, (run, magnitude))
            writer.write_bit(1 if value < 0 else 0)
        else:
            table.write(writer, code.escape)
            writer.write_bits(run, code.run_bits)
            writer.write_signed(value, code.level_bits)
        run = 0
    table.write(writer, code.eob)


def run_level_bits(code: RunLevelCode, scanned: Sequence[int], start: int = 0) -> int:
    """Bits :func:`encode_run_level` writes for ``scanned[start:]``."""
    table = code.table
    bits = 0
    run = 0
    for value in scanned[start:]:
        if value == 0:
            run += 1
            continue
        magnitude = abs(value)
        if run <= code.max_run and magnitude <= code.max_level:
            bits += table.bits((run, magnitude)) + 1
        else:
            bits += table.bits(code.escape) + code.run_bits + code.level_bits
        run = 0
    return bits + table.bits(code.eob)


def geometric(probability: float, value: int) -> float:
    """Unnormalised geometric prior p * (1-p)^value; used to build tables."""
    return probability * (1.0 - probability) ** value
