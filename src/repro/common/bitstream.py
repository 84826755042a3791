"""Bit-level stream writer and reader.

Every codec in the library serialises its syntax through these two classes.
Bits are written MSB-first within each byte, matching the convention of the
MPEG and H.264 bitstream specifications.

Both directions report through the :mod:`repro.errors` taxonomy
(``hdvb-lint`` rule HDVB110): a read past the end of the data raises
:class:`TruncationError`, every other misuse — a count or value that
cannot be represented, reading whole bytes while unaligned — raises
:class:`BitstreamError`, because the stream it would produce or consume
is malformed either way.  Decode loops can therefore catch
``BitstreamError`` and know they have seen *every* failure class this
layer can emit; nothing escapes as a raw ``ValueError``.

Both directions work a word at a time (docs/BITSTREAM.md, "Reading and
writing"): the writer shifts a whole field into its accumulator, and code
readers decide a whole code from one :meth:`BitReader.peek_bits` window.
A failed read leaves the reader where a bit-by-bit read would have stopped,
because that position is the ``bit_position`` a decode error reports.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import BitstreamError, TruncationError

#: Bits :meth:`BitReader.read_unary` counts from one window; a longer run of
#: zeros is counted bit by bit.
UNARY_WINDOW = 32


class BitWriter:
    """Accumulates bits MSB-first and renders them as ``bytes``.

    >>> w = BitWriter()
    >>> w.write_bits(0b101, 3)
    >>> w.write_bit(1)
    >>> w.align()
    >>> w.to_bytes()
    b'\\xb0'
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accum = 0      # bits not yet flushed to the buffer
        self._nbits = 0      # number of bits in _accum (< 8)

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._buffer) + self._nbits

    @property
    def bit_position(self) -> int:
        return len(self)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
        self._accum = (self._accum << 1) | bit
        self._nbits += 1
        if self._nbits == 8:
            self._buffer.append(self._accum)
            self._accum = 0
            self._nbits = 0

    def write_bits(self, value: int, count: int) -> None:
        """Append ``count`` bits of ``value``, most significant bit first."""
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        # int() lifts numpy integers to Python ints so the range check is
        # exact for every count (numpy shifts are undefined at >= 64 bits).
        value = int(value)
        if value < 0 or value >> count:
            raise BitstreamError(f"value {value} does not fit in {count} bits")
        count = int(count)
        accum = (self._accum << count) | value
        nbits = self._nbits + count
        if nbits >= 8:
            kept = nbits & 7
            self._buffer += (accum >> kept).to_bytes(nbits >> 3, "big")
            accum &= (1 << kept) - 1
            nbits = kept
        self._accum = accum
        self._nbits = nbits

    def write_signed(self, value: int, count: int) -> None:
        """Append ``value`` as ``count``-bit two's complement."""
        if count < 1:
            raise BitstreamError("count must be >= 1 for signed values")
        lo = -(1 << (count - 1))
        hi = (1 << (count - 1)) - 1
        if not lo <= value <= hi:
            raise BitstreamError(f"value {value} does not fit in {count} signed bits")
        self.write_bits(value & ((1 << count) - 1), count)

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes; requires byte alignment."""
        if self._nbits:
            raise BitstreamError("write_bytes requires byte alignment")
        self._buffer.extend(data)

    def align(self, fill: int = 0) -> int:
        """Pad with ``fill`` bits up to the next byte boundary.

        Returns the number of padding bits written.
        """
        padding = -self._nbits & 7
        if padding:
            if fill not in (0, 1):
                raise BitstreamError(f"bit must be 0 or 1, got {fill!r}")
            self.write_bits((1 << padding) - 1 if fill else 0, padding)
        return padding

    def to_bytes(self) -> bytes:
        """Return the stream contents, zero-padding the final partial byte."""
        if not self._nbits:
            return bytes(self._buffer)
        tail = self._accum << (8 - self._nbits)
        return bytes(self._buffer) + bytes([tail])


class BitReader:
    """Reads bits MSB-first from a ``bytes`` object.

    Raises :class:`BitstreamError` when reading past the end of the data.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position
        self._end = 8 * len(data)

    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._end - self._pos

    def at_end(self) -> bool:
        return self.bits_remaining <= 0

    def read_bit(self) -> int:
        if self._pos >= self._end:
            raise TruncationError("read past end of bitstream")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> int:
        """Read ``count`` bits, MSB first, returned as an unsigned int."""
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        if count == 0:
            return 0
        if count > self._end - self._pos:
            raise TruncationError(
                f"requested {count} bits but only {self.bits_remaining} remain"
            )
        position = self._pos
        end = position + count
        start_byte = position >> 3
        end_byte = (end + 7) >> 3
        chunk = int.from_bytes(self._data[start_byte:end_byte], "big")
        shift = 8 * (end_byte - start_byte) - (end - 8 * start_byte)
        self._pos = end
        return (chunk >> shift) & ((1 << count) - 1)

    def read_signed(self, count: int) -> int:
        """Read a ``count``-bit two's-complement value."""
        if count < 1:
            raise BitstreamError("count must be >= 1 for signed values")
        raw = self.read_bits(count)
        if raw >= 1 << (count - 1):
            raw -= 1 << count
        return raw

    def peek_bits(self, count: int) -> int:
        """Read ``count`` bits without consuming them, from one slice of the data.

        Bits beyond the end of the stream are returned as zeros so that VLC
        table lookups near the stream tail remain simple; consuming them
        still raises.
        """
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        position = self._pos
        start = position >> 3
        stop = (position + count + 7) >> 3
        chunk = self._data[start:stop]
        window = int.from_bytes(chunk, "big") << ((stop - start - len(chunk)) << 3)
        return (window >> ((stop << 3) - position - count)) & ((1 << count) - 1)

    def skip_bits(self, count: int) -> None:
        """Consume ``count`` bits, such as a code found with :meth:`peek_bits`.

        If fewer remain, the reader stops at the end of the data and raises
        :class:`TruncationError`, as reading the bits one at a time would.
        """
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        if count > self._end - self._pos:
            self._pos = self._end
            raise TruncationError("skip past end of bitstream")
        self._pos += count

    def read_unary(self, limit: Optional[int] = None) -> int:
        """Count the 0 bits before the next 1 bit; consume both and return the count.

        The count is the leading-zero count of one window of at least
        :data:`UNARY_WINDOW` bits: the window's width less its
        ``bit_length``.  With a ``limit``, a run of ``limit`` zeros stops the
        count: exactly ``limit`` zeros are consumed and ``limit`` is
        returned.  A run that fills the window, or reaches the end of the
        data, is counted bit by bit, so one that ends with the data raises
        :class:`TruncationError` with the reader at the end, where a
        bit-by-bit read stops.
        """
        position = self._pos
        chunk = self._data[position >> 3:(position + UNARY_WINDOW + 7) >> 3]
        width = 8 * len(chunk) - (position & 7)
        zeros = width - (int.from_bytes(chunk, "big") & ((1 << width) - 1)).bit_length()
        if zeros < width and (limit is None or zeros < limit):
            self._pos = position + zeros + 1
            return zeros
        zeros = 0
        while not self.read_bit():
            zeros += 1
            if zeros == limit:
                break
        return zeros

    def align(self) -> int:
        """Advance to the next byte boundary; returns bits skipped.

        Bounds-checked like :meth:`skip_bits`: aligning past the end of the
        data raises instead of leaving the reader positioned out of range.
        """
        skip = (8 - (self._pos & 7)) & 7
        if skip > self.bits_remaining:
            raise TruncationError("align past end of bitstream")
        self._pos += skip
        return skip

    def read_bytes(self, count: int) -> bytes:
        """Read whole bytes; requires byte alignment."""
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        if self._pos & 7:
            raise BitstreamError("read_bytes requires byte alignment")
        start = self._pos >> 3
        if start + count > len(self._data):
            raise TruncationError("read past end of bitstream")
        self._pos += 8 * count
        return self._data[start : start + count]
